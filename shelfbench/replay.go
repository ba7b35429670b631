package main

import (
	"context"

	"shelfsim/internal/asm"
	"shelfsim/internal/core"
	"shelfsim/internal/runner"
)

// coreTimes accumulates replays of single-core jobs, each run through
// runner.Execute and directly through core.New and Core.Run.
type coreTimes struct {
	newUS, runMS                             []float64
	runNS, insts, cycles, direct, supervised float64
}

// replay runs job supervised and direct twice each, in ABBA order so that
// warm caches favour neither side, and returns the supervised result.
func (ct *coreTimes) replay(op *open, run *runner.Runner, job runner.Job) (*core.Result, error) {
	var res *core.Result
	for _, supervised := range []bool{true, false, false, true} {
		if supervised {
			ex := op.child("runner.Execute", "runner")
			r, simErr := run.Execute(context.Background(), job)
			ct.supervised += float64(ex.end())
			if simErr != nil {
				return nil, simErr
			}
			res = r
			continue
		}
		streams := runner.Streams(job.Mix, -1)
		if len(job.Programs) > 0 {
			streams = asm.Streams(job.Programs)
		}
		nw := op.child("core.New", "core")
		c, err := core.New(job.Config, streams)
		dNew := nw.end()
		if err != nil {
			return nil, err
		}
		c.SetRetireTargets(job.Warmup, job.Measure)
		rn := op.child("core.Run", "core")
		c.Run(0)
		dRun := rn.end()
		r := c.Result()
		ct.newUS = append(ct.newUS, float64(dNew)/1e3)
		ct.runMS = append(ct.runMS, float64(dRun)/1e6)
		ct.runNS += float64(dRun)
		ct.direct += float64(dNew + dRun)
		ct.insts += float64(r.Stats.Retired)
		ct.cycles += float64(r.Cycles)
	}
	return res, nil
}

// report records the core metrics and the runner's supervision overhead:
// the share of runner.Execute time not spent in core.New and Core.Run.
func (ct *coreTimes) report(o *outcome) {
	o.layer["core.new_us"] = median(ct.newUS)
	o.layer["core.run_ms"] = median(ct.runMS)
	if ct.insts > 0 {
		o.layer["core.ns_per_inst"] = ct.runNS / ct.insts
		o.layer["core.ns_per_cycle"] = ct.runNS / ct.cycles
	}
	if ct.supervised > 0 {
		o.layer["runner.overhead_frac"] = 1 - ct.direct/ct.supervised
	}
}
