package runner

import (
	"context"
	"fmt"

	"shelfsim/internal/asm"
	"shelfsim/internal/chip"
	"shelfsim/internal/config"
	"shelfsim/internal/core"
	"shelfsim/internal/workload"
)

// runChip is runOnce's chip-mode body (Config.NumCores >= 2): the job runs
// on an N-core chip, stepped one allocation epoch at a time so the context
// and cycle budget are checked between epochs. Job.Attach hands out one
// core for its event stream, and a chip has no single core that lives for
// the whole run (migration rebuilds cores), so chip jobs ignore it.
func (r *Runner) runChip(ctx context.Context, job Job, warmup, measure int64, attempt int) (*core.Result, *SimError) {
	streams := job.Streams
	if streams == nil {
		if len(job.Programs) > 0 {
			streams = asm.Streams(job.Programs)
		} else {
			streams = Streams(job.Mix, -1)
		}
	}
	ch, err := chip.New(job.Config, streams)
	if err != nil {
		return nil, &SimError{
			Config: job.Config.Name, Mix: job.label(), Cycle: -1, Thread: -1,
			Attempt: attempt, Msg: err.Error(), err: err,
		}
	}
	ch.SetRetireTargets(warmup, measure)

	budget := (warmup + measure) * int64(job.Config.Threads*job.Config.NumCores) * r.cyclesPerInst()
	if simErr := r.driveChip(ctx, ch, job.Config.Name, job.label(), budget, attempt); simErr != nil {
		return nil, simErr
	}
	result := ch.Result()
	return &result, nil
}

// driveChip steps the chip epoch by epoch until every thread closes its
// window, checking the context and the cycle budget at each allocation
// epoch boundary.
func (r *Runner) driveChip(ctx context.Context, ch *chip.Chip, cfgName, mixName string, budget int64, attempt int) *SimError {
	for !ch.Done() {
		if err := ctx.Err(); err != nil {
			return &SimError{
				Config: cfgName, Mix: mixName, Cycle: ch.Cycle(), Thread: -1,
				Attempt: attempt, Transient: true,
				Msg: fmt.Sprintf("wall-clock limit: %v", err), err: err,
			}
		}
		if ch.Cycle() >= budget {
			err := fmt.Errorf("cycle budget %d exhausted (possible deadlock or pathological slowdown)", budget)
			return &SimError{
				Config: cfgName, Mix: mixName, Cycle: ch.Cycle(), Thread: -1,
				Attempt: attempt, Transient: true, Msg: err.Error(), err: err,
			}
		}
		ch.Step()
		ch.Rebalance()
	}
	return nil
}

// ChipDifferential proves the chip's parallel step path is bit-identical to
// deterministic lockstep: the same chip job runs once with ChipLockstep off
// (one goroutine per core) and once with it on (sequential core order), and
// both the merged Result fingerprint and every per-core Result fingerprint
// — plus the allocation-decision log — must match exactly. Any cross-core
// interaction leaking into the parallel step path shows up here.
func (r *Runner) ChipDifferential(ctx context.Context, cfg config.Config, mix workload.Mix, warmup, measure int64) error {
	if cfg.NumCores < 2 {
		return fmt.Errorf("runner: chip differential needs NumCores >= 2, got %d", cfg.NumCores)
	}
	par := cfg
	par.ChipLockstep = false
	seq := cfg
	seq.ChipLockstep = true

	resP, err := r.runChipRecorded(ctx, par, mix, warmup, measure)
	if err != nil {
		return err
	}
	resL, err := r.runChipRecorded(ctx, seq, mix, warmup, measure)
	if err != nil {
		return err
	}
	if resP.merged != resL.merged {
		return fmt.Errorf("runner: chip differential %s on %s: parallel merged fingerprint %s != lockstep %s",
			cfg.Name, mix.Name(), resP.merged, resL.merged)
	}
	if resP.alloc != resL.alloc {
		return fmt.Errorf("runner: chip differential %s on %s: parallel allocation log %s != lockstep %s",
			cfg.Name, mix.Name(), resP.alloc, resL.alloc)
	}
	for i := range resP.cores {
		if resP.cores[i] != resL.cores[i] {
			return fmt.Errorf("runner: chip differential %s on %s: core %d parallel fingerprint %s != lockstep %s",
				cfg.Name, mix.Name(), i, resP.cores[i], resL.cores[i])
		}
	}
	return nil
}

// chipFingerprints is one chip run's complete determinism evidence.
type chipFingerprints struct {
	merged string
	cores  []string
	alloc  string
}

// runChipRecorded executes one supervised chip run and returns its merged,
// per-core and allocation fingerprints.
func (r *Runner) runChipRecorded(ctx context.Context, cfg config.Config, mix workload.Mix, warmup, measure int64) (fp *chipFingerprints, err error) {
	job := Job{Config: cfg, Mix: mix, Warmup: warmup, Measure: measure}
	defer func() {
		if rec := recover(); rec != nil {
			fp, err = nil, recoveredError(job, rec, 1, nil)
		}
	}()
	ch, chipErr := chip.New(cfg, Streams(mix, -1))
	if chipErr != nil {
		return nil, chipErr
	}
	ch.SetRetireTargets(warmup, measure)
	budget := (warmup + measure) * int64(cfg.Threads*cfg.NumCores) * r.cyclesPerInst()
	if simErr := r.driveChip(ctx, ch, cfg.Name, mix.Name(), budget, 1); simErr != nil {
		return nil, simErr
	}
	res := ch.Result()
	return &chipFingerprints{
		merged: res.Fingerprint(),
		cores:  ch.CoreFingerprints(),
		alloc:  ch.AllocFingerprint(),
	}, nil
}
