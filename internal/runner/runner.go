// Package runner supervises simulation runs. It executes (config, mix)
// jobs on a worker pool of goroutines, recovers panics from the core and
// its substrates into structured SimErrors (config, mix, cycle, thread,
// message, stack), enforces per-run cycle budgets and wall-clock timeouts,
// retries transient failures once with a halved measurement window, and
// degrades gracefully: a sweep returns partial results plus a failure
// manifest instead of aborting the process.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"shelfsim/internal/asm"
	"shelfsim/internal/config"
	"shelfsim/internal/core"
	"shelfsim/internal/isa"
	"shelfsim/internal/obs"
	"shelfsim/internal/workload"
)

// SimError is one supervised run's structured failure. It serializes into
// the failure manifest and wraps the underlying error (for example a
// *core.InvariantError) for errors.As inspection.
type SimError struct {
	// Config is the failing configuration's name.
	Config string `json:"config"`
	// Mix identifies the workload mix.
	Mix string `json:"mix"`
	// Cycle is the simulation cycle at which the run failed (-1 unknown).
	Cycle int64 `json:"cycle"`
	// Thread is the offending hardware thread, or -1 when not attributable.
	Thread int `json:"thread"`
	// Attempt is the 1-based attempt number that produced this failure.
	Attempt int `json:"attempt"`
	// Transient marks failures worth retrying (timeouts, cycle budgets) as
	// opposed to deterministic invariant violations.
	Transient bool `json:"transient"`
	// Msg is the recovered panic message or failure description.
	Msg string `json:"message"`
	// Stack is the goroutine stack at the recovery point (panics only).
	Stack string `json:"stack,omitempty"`

	err error
}

// Error implements the error interface.
func (e *SimError) Error() string {
	return fmt.Sprintf("runner: %s on %s failed at cycle %d (thread %d, attempt %d): %s",
		e.Config, e.Mix, e.Cycle, e.Thread, e.Attempt, e.Msg)
}

// Unwrap exposes the underlying error (e.g. a *core.InvariantError).
func (e *SimError) Unwrap() error { return e.err }

// Job is one supervised simulation: a configuration over a mix with the
// paper's warmup/measurement methodology (Warmup retired instructions of
// training, then a window of Measure retired instructions per thread).
type Job struct {
	Config config.Config
	Mix    workload.Mix
	// Programs, when non-empty, is the assembled-program workload, one
	// program per thread. Unlike Streams, programs have canonical cache
	// identities (their schedule fingerprints), so program jobs serve and
	// memoize like kernel mixes. Fresh replay streams are instantiated per
	// attempt, so retries see the workload from the top.
	Programs []*asm.Program
	// Streams, when non-nil, overrides the mix-derived instruction streams
	// (library callers driving custom workloads or recorded traces). It is
	// not serializable, so network front ends never set it.
	Streams []isa.Stream
	Warmup  int64
	Measure int64
	// Attach, when non-nil, is invoked with the freshly constructed core
	// before the run starts, so library callers can install the core's
	// event observer (Core.SetObserver) on supervised runs and read its
	// state afterwards (the litmus campaign reads FaultInjected). Like
	// Streams it is library-only and never serializes. Attach is
	// single-core only: chip jobs (Config.NumCores >= 2) rebuild cores on
	// thread migration, so there is no stable core to observe; it is ignored
	// in chip mode.
	Attach func(c *core.Core)
}

// label identifies the job's workload in failure reports: the mix name,
// the program workload ID, or the stream names when the job runs
// caller-provided streams.
func (j *Job) label() string {
	if len(j.Programs) > 0 {
		return asm.WorkloadID(j.Programs)
	}
	if len(j.Mix.Kernels) > 0 || j.Streams == nil {
		return j.Mix.Name()
	}
	s := "streams["
	for i, st := range j.Streams {
		if i > 0 {
			s += "+"
		}
		s += st.Name()
	}
	return s + "]"
}

// JobResult pairs a job with its outcome: exactly one of Result and Err is
// non-nil.
type JobResult struct {
	Job    Job
	Result *core.Result
	Err    *SimError
}

// Report is a sweep's outcome: per-job results in input order (failed jobs
// keep their slot with Err set) plus the collected failures.
type Report struct {
	Results  []JobResult
	Failures []*SimError
	// Telemetry is the merged observability of every successful job that
	// ran with Config.Telemetry; nil when no job collected any. Each core
	// owns its collector during simulation and the merge happens after the
	// worker pool drains, so the aggregate is race-free by construction.
	Telemetry *obs.Collector
}

// Runner executes supervised simulation jobs. The zero value is ready to
// use with defaults; fields tune the supervision policy.
type Runner struct {
	// Workers is the worker-pool size for RunAll (default GOMAXPROCS).
	Workers int
	// Timeout bounds one attempt's wall-clock time (0 = unlimited).
	Timeout time.Duration
	// CyclesPerInst scales the per-run cycle budget: a run aborts after
	// (warmup+measure) * threads * CyclesPerInst cycles (default 1000).
	CyclesPerInst int64
	// MaxAttempts caps attempts per job including the first (default 2:
	// transient failures retry once with a halved measurement window).
	MaxAttempts int
}

// ctxCheckInterval is how many cycles the supervised loop simulates
// between context/deadline checks.
const ctxCheckInterval = 4096

func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (r *Runner) cyclesPerInst() int64 {
	if r.CyclesPerInst > 0 {
		return r.CyclesPerInst
	}
	return 1000
}

func (r *Runner) maxAttempts() int {
	if r.MaxAttempts > 0 {
		return r.MaxAttempts
	}
	return 2
}

// Streams instantiates the per-thread workload streams for a mix using the
// harness conventions: disjoint 4 GiB address regions and per-thread seeds.
// limit bounds each stream's length (<0 for unbounded).
func Streams(mix workload.Mix, limit int64) []isa.Stream {
	streams := make([]isa.Stream, len(mix.Kernels))
	for i, k := range mix.Kernels {
		streams[i] = k.NewStream(uint64(i+1)<<32, uint64(i)+1, limit)
	}
	return streams
}

// Execute runs one job under supervision. Transient failures (wall-clock
// timeout, cycle budget) are retried with a halved measurement window, up
// to MaxAttempts; deterministic failures (panics, invariant violations)
// are returned immediately.
func (r *Runner) Execute(ctx context.Context, job Job) (*core.Result, *SimError) {
	warmup, measure := job.Warmup, job.Measure
	var last *SimError
	for attempt := 1; attempt <= r.maxAttempts(); attempt++ {
		res, simErr := r.runOnce(ctx, job, warmup, measure, attempt)
		if simErr == nil {
			return res, nil
		}
		last = simErr
		if !simErr.Transient || ctx.Err() != nil {
			break
		}
		// Retry with a halved measurement window: if the failure was a
		// pathological slowdown rather than a deadlock, a shorter window
		// still yields a usable (if noisier) measurement.
		if measure > 1 {
			measure /= 2
		}
	}
	return nil, last
}

// runOnce performs a single supervised attempt.
func (r *Runner) runOnce(ctx context.Context, job Job, warmup, measure int64, attempt int) (res *core.Result, simErr *SimError) {
	var c *core.Core
	defer func() {
		if rec := recover(); rec != nil {
			simErr = recoveredError(job, rec, attempt, c)
			res = nil
		}
	}()

	if r.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.Timeout)
		defer cancel()
	}

	if job.Config.NumCores >= 2 {
		return r.runChip(ctx, job, warmup, measure, attempt)
	}

	streams := job.Streams
	if streams == nil {
		if len(job.Programs) > 0 {
			streams = asm.Streams(job.Programs)
		} else {
			streams = Streams(job.Mix, -1)
		}
	}
	c, err := core.New(job.Config, streams)
	if err != nil {
		return nil, &SimError{
			Config: job.Config.Name, Mix: job.label(), Cycle: -1, Thread: -1,
			Attempt: attempt, Msg: err.Error(), err: err,
		}
	}
	c.SetRetireTargets(warmup, measure)
	if job.Attach != nil {
		job.Attach(c)
	}

	budget := (warmup + measure) * int64(job.Config.Threads) * r.cyclesPerInst()
	for {
		if err := ctx.Err(); err != nil {
			return nil, &SimError{
				Config: job.Config.Name, Mix: job.label(), Cycle: c.Cycle(), Thread: -1,
				Attempt: attempt, Transient: true,
				Msg: fmt.Sprintf("wall-clock limit: %v", err), err: err,
			}
		}
		remaining := budget - c.Cycle()
		if remaining <= 0 {
			err := fmt.Errorf("cycle budget %d exhausted (possible deadlock or pathological slowdown)", budget)
			return nil, &SimError{
				Config: job.Config.Name, Mix: job.label(), Cycle: c.Cycle(), Thread: -1,
				Attempt: attempt, Transient: true, Msg: err.Error(), err: err,
			}
		}
		chunk := int64(ctxCheckInterval)
		if chunk > remaining {
			chunk = remaining
		}
		if _, finished := c.Run(chunk); finished {
			break
		}
	}
	result := c.Result()
	return &result, nil
}

// recoveredError converts a recovered panic value into a SimError,
// extracting cycle and thread attribution from typed invariant errors.
func recoveredError(job Job, rec any, attempt int, c *core.Core) *SimError {
	e := &SimError{
		Config:  job.Config.Name,
		Mix:     job.label(),
		Cycle:   -1,
		Thread:  -1,
		Attempt: attempt,
		Msg:     fmt.Sprint(rec),
		Stack:   string(debug.Stack()),
	}
	if c != nil {
		e.Cycle = c.Cycle()
	}
	if err, ok := rec.(error); ok {
		e.err = err
		var inv *core.InvariantError
		if errors.As(err, &inv) {
			e.Thread = inv.Thread
			if inv.Cycle >= 0 {
				e.Cycle = inv.Cycle
			}
		}
	}
	return e
}

// RunAll executes jobs on the worker pool and returns every job's outcome:
// failed jobs do not abort the sweep, they are collected into the report's
// failure list while the remaining jobs complete.
func (r *Runner) RunAll(ctx context.Context, jobs []Job) *Report {
	out := make([]JobResult, len(jobs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < r.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				res, simErr := r.Execute(ctx, jobs[i])
				out[i] = JobResult{Job: jobs[i], Result: res, Err: simErr}
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	rep := &Report{Results: out}
	for i := range out {
		if out[i].Err != nil {
			rep.Failures = append(rep.Failures, out[i].Err)
			continue
		}
		if o := out[i].Result.Obs; o != nil {
			if rep.Telemetry == nil {
				rep.Telemetry = obs.New()
			}
			rep.Telemetry.Merge(o)
		}
	}
	return rep
}
