package runner

import (
	"context"
	"fmt"

	"shelfsim/internal/config"
	"shelfsim/internal/core"
	"shelfsim/internal/isa"
	"shelfsim/internal/workload"
)

// Differential validates the paper's semantics-preservation claim — the
// shelf changes performance, never program semantics — by running the same
// mix on both configurations over identical bounded streams and asserting
// that every thread retires exactly the same instruction stream in program
// order with the same retire count. A mismatch or a supervised failure is
// returned as an error (SimErrors pass through for manifest collection).
func (r *Runner) Differential(ctx context.Context, a, b config.Config, mix workload.Mix, insts int64) error {
	countsA, err := r.runRecorded(ctx, a, mix, insts)
	if err != nil {
		return err
	}
	countsB, err := r.runRecorded(ctx, b, mix, insts)
	if err != nil {
		return err
	}
	for tid := range countsA {
		if countsA[tid] != countsB[tid] {
			return fmt.Errorf("runner: differential %s vs %s on %s: thread %d retired %d vs %d instructions",
				a.Name, b.Name, mix.Name(), tid, countsA[tid], countsB[tid])
		}
	}
	return nil
}

// SchedulerDifferential validates that the incremental wakeup–select
// engine (sched.go) is cycle-exact against the legacy rescan scheduler:
// the same mix runs once per scheduler over identical bounded streams and
// the complete Result fingerprints — cycle count, the full counter set,
// cache statistics, per-thread scalars — must be bit-identical. Any
// timing divergence between the two select loops shows up here.
func (r *Runner) SchedulerDifferential(ctx context.Context, cfg config.Config, mix workload.Mix, insts int64) error {
	inc := cfg
	inc.RescanScheduler = false
	res := cfg
	res.RescanScheduler = true
	a, err := r.runResult(ctx, inc, mix, insts)
	if err != nil {
		return err
	}
	b, err := r.runResult(ctx, res, mix, insts)
	if err != nil {
		return err
	}
	if fa, fb := a.Fingerprint(), b.Fingerprint(); fa != fb {
		return fmt.Errorf("runner: scheduler differential %s on %s: incremental fingerprint %s != rescan %s",
			cfg.Name, mix.Name(), fa, fb)
	}
	return nil
}

// runResult executes cfg over mix with bounded streams until every thread
// drains, returning the assembled Result (the scheduler differential
// compares whole-run fingerprints rather than retire streams).
func (r *Runner) runResult(ctx context.Context, cfg config.Config, mix workload.Mix, insts int64) (res *core.Result, err error) {
	job := Job{Config: cfg, Mix: mix, Warmup: 0, Measure: insts}
	var c *core.Core
	defer func() {
		if rec := recover(); rec != nil {
			res, err = nil, recoveredError(job, rec, 1, c)
		}
	}()
	c, coreErr := core.New(cfg, Streams(mix, insts))
	if coreErr != nil {
		return nil, coreErr
	}
	if err := r.driveToCompletion(ctx, cfg, mix, c, insts); err != nil {
		return nil, err
	}
	out := c.Result()
	return &out, nil
}

// runRecorded executes cfg over mix with bounded streams (limit insts per
// thread) until every thread drains, recording retirement through the
// core's retire events. It verifies each thread retires sequence numbers
// 0,1,2,... in strict program order with no drops or duplicates, and
// returns the per-thread retire counts.
func (r *Runner) runRecorded(ctx context.Context, cfg config.Config, mix workload.Mix, insts int64) ([]int64, error) {
	return r.runStreams(ctx, cfg, mix, Streams(mix, insts), insts)
}

// runStreams is runRecorded over caller-supplied bounded streams (used by
// the fuzzer to vary stream seeds beyond the harness conventions).
func (r *Runner) runStreams(ctx context.Context, cfg config.Config, mix workload.Mix, streams []isa.Stream, insts int64) (counts []int64, err error) {
	job := Job{Config: cfg, Mix: mix, Warmup: 0, Measure: insts}
	var c *core.Core
	defer func() {
		if rec := recover(); rec != nil {
			counts, err = nil, recoveredError(job, rec, 1, c)
		}
	}()

	c, coreErr := core.New(cfg, streams)
	if coreErr != nil {
		return nil, coreErr
	}
	next := make([]int64, cfg.Threads)
	var orderErr error
	c.SetObserver(func(ev core.Event) {
		if ev.Kind != core.EventRetire {
			return
		}
		if orderErr == nil && ev.Seq != next[ev.Tid] {
			orderErr = fmt.Errorf("runner: %s on %s: thread %d retired seq %d out of program order (expected %d)",
				cfg.Name, mix.Name(), ev.Tid, ev.Seq, next[ev.Tid])
		}
		next[ev.Tid]++
	})

	if err := r.driveToCompletion(ctx, cfg, mix, c, insts); err != nil {
		return nil, err
	}
	if orderErr != nil {
		return nil, orderErr
	}
	return next, nil
}

// driveToCompletion steps c in context-checked chunks until every thread
// drains, bounded by the runner's per-instruction cycle budget.
func (r *Runner) driveToCompletion(ctx context.Context, cfg config.Config, mix workload.Mix, c *core.Core, insts int64) error {
	budget := insts * int64(cfg.Threads) * r.cyclesPerInst()
	for {
		if err := ctx.Err(); err != nil {
			return &SimError{
				Config: cfg.Name, Mix: mix.Name(), Cycle: c.Cycle(), Thread: -1,
				Attempt: 1, Transient: true,
				Msg: fmt.Sprintf("wall-clock limit: %v", err), err: err,
			}
		}
		remaining := budget - c.Cycle()
		if remaining <= 0 {
			return &SimError{
				Config: cfg.Name, Mix: mix.Name(), Cycle: c.Cycle(), Thread: -1,
				Attempt: 1, Transient: true,
				Msg: fmt.Sprintf("cycle budget %d exhausted during differential run", budget),
			}
		}
		chunk := int64(ctxCheckInterval)
		if chunk > remaining {
			chunk = remaining
		}
		if _, finished := c.Run(chunk); finished {
			return nil
		}
	}
}
