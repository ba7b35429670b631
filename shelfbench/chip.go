package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"shelfsim"
	"shelfsim/internal/chip"
	"shelfsim/internal/core"
	"shelfsim/internal/runner"
	"shelfsim/internal/workload"
)

// The chip workload runs N-core chips of 4-thread shelf64-opt cores with
// ICOUNT thread-to-core allocation on the default parallel step path, one
// paper mix per core. It is the only workload that enters internal/chip.

// chipCores is the chip size: one core per CPU, and at least two, the
// smallest chip.
func chipCores(nproc int) int { return max(nproc, 2) }

// chipRequest builds the request for one scheduled operation.
func chipRequest(mixIdx []int) shelfsim.Request {
	mixes := workload.PaperMixes(chipThreads)
	var names []string
	for _, m := range mixIdx {
		for _, k := range mixes[m].Kernels {
			names = append(names, k.Name)
		}
	}
	cores, alloc := len(mixIdx), "icount"
	return shelfsim.Request{Preset: "shelf64-opt", Threads: chipThreads, Kernels: names,
		Insts: chipInsts, Overrides: &shelfsim.Overrides{Cores: &cores, Alloc: &alloc}}
}

// chipSetup resolves the request and builds its streams: the work done
// before the chip exists.
func chipSetup(req shelfsim.Request) (shelfsim.Resolved, error) {
	rv, err := req.Resolve()
	if err != nil {
		return rv, err
	}
	rv.Streams = runner.Streams(rv.Mix, -1)
	return rv, nil
}

func runChip(rc runCfg, tr *tracer) (*outcome, error) {
	o := newOutcome()
	ctx := context.Background()
	cores := chipCores(rc.nproc)
	sched := chipSchedule(rc.seed, cores, 10000)

	setups := make([]float64, setupReps)
	for i := range setups {
		t := time.Now()
		rv, err := chipSetup(chipRequest(sched[i%len(sched)]))
		setups[i] = time.Since(t).Seconds()
		if err != nil {
			return nil, err
		}
		if rv.Config.ChipLockstep || rv.Config.Telemetry || rv.Config.CheckInvariants {
			return nil, fmt.Errorf("chip: lockstep, telemetry or invariant checking on the timed path")
		}
	}
	o.e2e["setup_s"] = median(setups)

	const digestOps = 4
	digest := fnv.New64a()
	runtime.GC() // start timing from a collected heap, as serve's phases do
	for i := 0; i < 3; i++ {
		rc.cal.sample()
	}
	var digestRes []*core.Result
	var fps []string
	// Rates are taken per cycle of the schedule, which runs every paper mix
	// once, and their median reported, so a transient stall on a shared
	// machine moves one cycle, not the result.
	perCycle := paperMixes / cores
	var busy, busyWall, retired, cycleS, cycleRet float64
	var opsRate, instRate []float64
	ops := 0
	d := &chipDriveStats{}
	for ops == 0 || busyWall < rc.seconds {
		req := chipRequest(sched[ops])
		t := now()
		var res shelfsim.Result
		var err error
		if tr == nil {
			res, err = shelfsim.Run(ctx, req)
		} else {
			res, err = d.drive(tr.root("chip.op", 0), req)
		}
		opS, opWall := since(t, rc.nproc)
		busy += opS
		busyWall += opWall
		cycleS += opS
		ops++
		o.attempted++
		if err != nil {
			o.fail("chip op %d: %v", ops-1, err)
			fps = append(fps, "")
		} else {
			retired += float64(res.Stats.Retired)
			cycleRet += float64(res.Stats.Retired)
		}
		if ops%perCycle == 0 {
			opsRate = append(opsRate, float64(perCycle)/cycleS)
			instRate = append(instRate, cycleRet/cycleS)
			cycleS, cycleRet = 0, 0
			rc.cal.sample()
		}
		if err != nil {
			continue
		}
		fps = append(fps, res.Fingerprint())
		if ops <= digestOps {
			fmt.Fprintf(digest, "%s\n", res.Fingerprint())
			digestRes = append(digestRes, &res)
		}
	}
	if len(opsRate) == 0 { // shorter than one cycle
		opsRate, instRate = []float64{float64(ops) / busy}, []float64{retired / busy}
	}
	o.layer["host.wait_frac"] = 1 - busy/busyWall
	o.e2e["ops_per_s"] = median(opsRate)
	o.e2e["sim_insts_per_s"] = median(instRate)
	o.digest = fmt.Sprintf("%016x", digest.Sum64())
	o.digestOps = len(digestRes)
	simCounts(o, digestRes)

	// Off the clock: one seeded operation must equal its lockstep twin.
	i := newRNG(rc.seed, 7).intn(ops)
	twin := chipRequest(sched[i])
	lockstep := true
	twin.Overrides.ChipLockstep = &lockstep
	o.attempted++
	if fps[i] == "" {
		o.fail("chip: sampled op %d failed", i)
	} else if res, err := shelfsim.Run(ctx, twin); err != nil {
		o.fail("chip: lockstep twin of op %d: %v", i, err)
	} else if res.Fingerprint() != fps[i] {
		o.fail("chip: op %d parallel fingerprint %s != lockstep %s", i, fps[i], res.Fingerprint())
	}

	if tr != nil {
		d.layerMetrics(o, cores)
		chipReplay(o, tr, sched[i])
	}
	return o, nil
}

// chipDriveStats accumulates the traced chip operations.
type chipDriveStats struct {
	newMS, stepMS, rebalanceUS, epochs, migrations, opStepMS []float64
	stepNS, insts, coreCycles                                float64
}

// drive runs one operation through the chip's public API directly, with a
// span around each call, and returns its merged result.
func (d *chipDriveStats) drive(op *open, req shelfsim.Request) (shelfsim.Result, error) {
	defer op.end()
	var rv shelfsim.Resolved
	var err error
	op.timed("request.Resolve", "request", func() { rv, err = chipSetup(req) })
	if err != nil {
		return shelfsim.Result{}, err
	}
	var ch *chip.Chip
	nw := op.child("chip.New", "chip")
	ch, err = chip.New(rv.Config, rv.Streams)
	if err == nil {
		ch.SetRetireTargets(rv.Warmup, rv.Insts)
	}
	d.newMS = append(d.newMS, float64(nw.end())/1e6)
	if err != nil {
		return shelfsim.Result{}, err
	}
	var opStep float64
	epochs := 0
	for !ch.Done() {
		st := op.child("chip.Step", "chip")
		ch.Step()
		ns := float64(st.end())
		rb := op.child("chip.Rebalance", "chip")
		ch.Rebalance()
		d.rebalanceUS = append(d.rebalanceUS, float64(rb.end())/1e3)
		d.stepMS = append(d.stepMS, ns/1e6)
		opStep += ns
		epochs++
	}
	var res shelfsim.Result
	op.timed("chip.Result", "chip", func() { res = ch.Result() })
	d.epochs = append(d.epochs, float64(epochs))
	d.migrations = append(d.migrations, float64(ch.Migrations()))
	d.opStepMS = append(d.opStepMS, opStep/1e6)
	d.stepNS += opStep
	d.insts += float64(res.Stats.Retired)
	d.coreCycles += float64(ch.Cycle()) * float64(rv.Config.NumCores)
	return res, nil
}

// layerMetrics reports the chip layer and, normalized per core, the core
// layer as seen through Chip.Step.
func (d *chipDriveStats) layerMetrics(o *outcome, cores int) {
	o.layer["chip.new_ms"] = median(d.newMS)
	o.layer["chip.step_ms"] = median(d.stepMS)
	o.layer["chip.rebalance_us"] = median(d.rebalanceUS)
	o.layer["chip.epochs"] = median(d.epochs)
	o.layer["chip.migrations"] = median(d.migrations)
	o.layer["core.new_us"] = median(d.newMS) * 1e3 / float64(cores)
	o.layer["core.run_ms"] = median(d.opStepMS)
	if d.insts > 0 {
		o.layer["core.ns_per_inst"] = d.stepNS / d.insts
		o.layer["core.ns_per_cycle"] = d.stepNS / d.coreCycles
	}
}

// chipReplay re-runs one operation through runner.Execute and directly on
// the parallel and the lockstep step paths, in mirrored order so warm
// caches favour no side. It gives the runner's overhead and the parallel
// step path's speedup.
func chipReplay(o *outcome, tr *tracer, mixIdx []int) {
	req := chipRequest(mixIdx)
	lock := chipRequest(mixIdx)
	lockstep := true
	lock.Overrides.ChipLockstep = &lockstep
	rv, err := chipSetup(req)
	o.attempted++
	if err != nil {
		o.fail("chip replay: %v", err)
		return
	}
	job := runner.Job{Config: rv.Config, Mix: rv.Mix, Warmup: rv.Warmup, Measure: rv.Insts}
	var supervised, direct float64
	par, seq := &chipDriveStats{}, &chipDriveStats{}
	for _, path := range []string{"execute", "parallel", "lockstep", "lockstep", "parallel", "execute"} {
		op := tr.root("replay", 1)
		switch path {
		case "execute":
			ex := op.child("runner.Execute", "runner")
			_, simErr := (&runner.Runner{MaxAttempts: 1}).Execute(context.Background(), job)
			supervised += float64(ex.end())
			op.end()
			if simErr != nil {
				err = simErr
			}
		case "parallel":
			t := time.Now()
			_, err = par.drive(op, req)
			direct += float64(time.Since(t))
		case "lockstep":
			_, err = seq.drive(op, lock)
		}
		if err != nil {
			o.fail("chip replay (%s): %v", path, err)
			return
		}
	}
	o.layer["runner.overhead_frac"] = 1 - direct/supervised
	o.layer["chip.parallel_speedup"] = seq.stepNS / par.stepNS
}
