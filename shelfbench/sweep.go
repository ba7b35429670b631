package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"shelfsim"
	"shelfsim/internal/config"
	"shelfsim/internal/core"
	"shelfsim/internal/harness"
	"shelfsim/internal/runner"
	"shelfsim/internal/workload"
)

// The sweep workload is cmd/experiments in-process: each round builds a
// fresh harness, prewarms the four main configurations on the worker pool
// and regenerates Figs 10, 12 and 13, which add the single-thread and
// oracle-steer runs serially.

// sweepConfigs returns the four prewarmed configurations, validated.
func sweepConfigs() ([]config.Config, error) {
	cfgs := []config.Config{
		config.Base64(sweepThreads),
		config.Shelf64(sweepThreads, false),
		config.Shelf64(sweepThreads, true),
		config.Base128(sweepThreads),
	}
	for i := range cfgs {
		if err := cfgs[i].Validate(); err != nil {
			return nil, fmt.Errorf("config %s: %w", cfgs[i].Name, err)
		}
	}
	return cfgs, nil
}

// sweepSetup is the set-up a round pays before simulating: harness.New,
// config validation and mix generation.
func sweepSetup(rd sweepRound, workers int) (*harness.Harness, []config.Config, []workload.Mix, error) {
	h := harness.New(rd.Insts, sweepMixCount)
	h.Runner.Workers = workers
	cfgs, err := sweepConfigs()
	if err != nil {
		return nil, nil, nil, err
	}
	all := workload.PaperMixes(sweepThreads)[:sweepMixCount]
	mixes := make([]workload.Mix, len(rd.MixOrder))
	for i, j := range rd.MixOrder {
		mixes[i] = all[j]
	}
	return h, cfgs, mixes, nil
}

// sweepRuns lists every simulation a round executes, in a fixed order:
// the prewarmed cross product, then the single-thread runs STP normalizes
// by, then Fig 12's oracle-steer runs.
func sweepRuns(h *harness.Harness, cfgs []config.Config, mixes []workload.Mix) []runner.Job {
	var jobs []runner.Job
	for _, c := range cfgs {
		for _, m := range mixes {
			jobs = append(jobs, runner.Job{Config: c, Mix: m})
		}
	}
	seen := map[string]bool{}
	for _, m := range h.Mixes(sweepThreads) {
		for _, k := range m.Kernels {
			if !seen[k.Name] {
				seen[k.Name] = true
				jobs = append(jobs, runner.Job{Config: config.Base64(1),
					Mix: workload.Mix{ID: 0, Kernels: []*workload.Kernel{k}}})
			}
		}
	}
	oracle := config.Shelf64(sweepThreads, true)
	oracle.Steer = config.SteerOracle
	oracle.Name += "-oracle"
	for _, m := range h.Mixes(sweepThreads) {
		jobs = append(jobs, runner.Job{Config: oracle, Mix: m})
	}
	for i := range jobs {
		jobs[i].Warmup, jobs[i].Measure = h.Warmup, h.Insts
	}
	return jobs
}

func runSweep(rc runCfg, tr *tracer) (*outcome, error) {
	o := newOutcome()
	ctx := context.Background()
	sched := sweepSchedule(rc.seed, 1000)

	setups := make([]float64, setupReps)
	for i := range setups {
		t := time.Now()
		if _, _, _, err := sweepSetup(sched[i%len(sched)], rc.nproc); err != nil {
			return nil, err
		}
		setups[i] = time.Since(t).Seconds()
	}
	o.e2e["setup_s"] = median(setups)

	// Rates are taken per round and their median reported, so a transient
	// stall on a shared machine moves one round, not the result.
	var busy, busyWall float64
	var opsRate, instRate []float64
	var prewarmS, figuresS, runsPerRound []float64
	digest := fnv.New64a()
	var digestRes []*core.Result
	runtime.GC() // start timing from a collected heap, as serve's phases do
	for i := 0; i < 3; i++ {
		rc.cal.sample()
	}
	for r := 0; r == 0 || busyWall < rc.seconds; r++ {
		rd := sched[r]
		root := tr.root("sweep.round", 0)
		t0 := now()
		var h *harness.Harness
		var cfgs []config.Config
		var mixes []workload.Mix
		var err error
		root.timed("harness.New", "harness", func() { h, cfgs, mixes, err = sweepSetup(rd, rc.nproc) })
		if err != nil {
			return nil, err
		}
		if h.CheckInvariants || h.Telemetry {
			return nil, fmt.Errorf("sweep: invariant checking or telemetry on the timed path")
		}
		var rep *runner.Report
		tp := time.Now()
		root.timed("harness.Prewarm", "harness", func() { rep = h.Prewarm(ctx, cfgs, mixes) })
		tf := time.Now()
		var f10 []harness.MixSTP
		var f12 []harness.MixSteering
		var f13 []harness.MixEDP
		var e10, e12, e13 error
		root.timed("harness.Fig10", "harness", func() { f10, e10 = h.Fig10(sweepThreads) })
		root.timed("harness.Fig12", "harness", func() { f12, e12 = h.Fig12(sweepThreads, true) })
		root.timed("harness.Fig13", "harness", func() { f13, e13 = h.Fig13(sweepThreads) })
		te := time.Now()
		roundS, roundWall := since(t0, rc.nproc)
		root.end()
		busy += roundS
		busyWall += roundWall
		prewarmS = append(prewarmS, tf.Sub(tp).Seconds())
		figuresS = append(figuresS, te.Sub(tf).Seconds())

		// Off the clock: account and check the round.
		rc.cal.sample()
		o.attempted += h.Runs()
		opsRate = append(opsRate, float64(h.Runs())/roundS)
		runsPerRound = append(runsPerRound, float64(h.Runs()))
		for _, se := range h.Failures() {
			o.attempted++
			o.fail("sweep round %d: %v", r, se)
		}
		for i, err := range []error{e10, e12, e13} {
			if err != nil {
				o.fail("sweep round %d: figure %d: %v", r, i, err)
			}
		}
		checkFigures(o, r, f10, f12, f13)
		jobs := sweepRuns(h, cfgs, mixes)
		if len(jobs) != h.Runs() {
			o.fail("sweep round %d: %d runs cached, expected %d", r, h.Runs(), len(jobs))
		}
		retired := 0.0
		for i, j := range jobs {
			res, err := h.Run(j.Config, j.Mix)
			if err != nil {
				continue // already counted as a failure
			}
			retired += float64(res.Stats.Retired)
			if r == 0 {
				fmt.Fprintf(digest, "%s\n", res.Fingerprint())
				digestRes = append(digestRes, res)
				if i < len(rep.Results) && rep.Results[i].Result != nil &&
					rep.Results[i].Result.Fingerprint() != res.Fingerprint() {
					o.fail("sweep: prewarm result %d differs from the harness cache", i)
				}
			}
		}
		instRate = append(instRate, retired/roundS)
		if r == 0 {
			// A seeded prewarm job must equal the public API's in-process run.
			j := jobs[newRNG(rc.seed, 5).intn(len(rep.Results))]
			checkInProcess(ctx, o, j, h)
			replayCore(o, tr, jobs, rc.seed)
		}
	}
	o.layer["host.wait_frac"] = 1 - busy/busyWall
	o.e2e["ops_per_s"] = median(opsRate)
	o.e2e["sim_insts_per_s"] = median(instRate)
	o.digest = fmt.Sprintf("%016x", digest.Sum64())
	o.digestOps = len(digestRes)
	simCounts(o, digestRes)
	if tr != nil {
		o.layer["harness.prewarm_s"] = median(prewarmS)
		o.layer["harness.figures_s"] = median(figuresS)
		o.layer["harness.parallel_frac"] = sum(prewarmS) / (sum(prewarmS) + sum(figuresS))
		o.layer["harness.runs"] = median(runsPerRound)
	}
	return o, nil
}

// checkFigures checks the figure rows are complete and their values
// finite and positive.
func checkFigures(o *outcome, r int, f10 []harness.MixSTP, f12 []harness.MixSteering, f13 []harness.MixEDP) {
	if len(f10) != sweepMixCount || len(f12) != sweepMixCount || len(f13) != sweepMixCount {
		o.fail("sweep round %d: figure rows %d/%d/%d, want %d", r, len(f10), len(f12), len(f13), sweepMixCount)
		return
	}
	for i := 0; i < sweepMixCount; i++ {
		for _, v := range []float64{
			f10[i].Base64, f10[i].ShelfCons, f10[i].ShelfOpt, f10[i].Base128,
			f12[i].Base64, f12[i].Practical, f12[i].Oracle,
			f13[i].Base64, f13[i].ShelfCons, f13[i].ShelfOpt, f13[i].Base128,
		} {
			if !(v > 0) || math.IsInf(v, 0) {
				o.fail("sweep round %d: mix %d: non-positive figure value %v", r, i, v)
				return
			}
		}
	}
}

// checkInProcess runs job through the public request API and compares
// result fingerprints with the harness's cached run.
func checkInProcess(ctx context.Context, o *outcome, j runner.Job, h *harness.Harness) {
	names := make([]string, len(j.Mix.Kernels))
	for i, k := range j.Mix.Kernels {
		names[i] = k.Name
	}
	cfg := j.Config
	warm := j.Warmup
	rep, err := shelfsim.RunReport(ctx, shelfsim.Request{Config: &cfg, Kernels: names,
		Insts: j.Measure, Warmup: &warm})
	res, herr := h.Run(j.Config, j.Mix)
	o.attempted++
	switch {
	case err != nil || herr != nil:
		o.fail("sweep: in-process check of %s/%s: %v %v", cfg.Name, j.Mix.Name(), err, herr)
	case rep.ResultFingerprint != res.Fingerprint():
		o.fail("sweep: %s/%s: harness fingerprint %s != RunReport %s",
			cfg.Name, j.Mix.Name(), res.Fingerprint(), rep.ResultFingerprint)
	}
}

// simCounts records the deterministic simulated counts of the digest set:
// a simulator-only change must leave them identical.
func simCounts(o *outcome, rs []*core.Result) {
	var cycles, ret, l1dMiss, l1dAll, l2Miss, l2All float64
	for _, r := range rs {
		cycles += float64(r.Cycles)
		ret += float64(r.Stats.Retired)
		l1dMiss += float64(r.L1D.Misses)
		l1dAll += float64(r.L1D.Hits + r.L1D.Misses)
		l2Miss += float64(r.L2.Misses)
		l2All += float64(r.L2.Hits + r.L2.Misses)
	}
	o.layer["core.sim_cycles"] = cycles
	o.layer["core.sim_retired"] = ret
	if l1dAll > 0 {
		o.layer["mem.l1d_miss_frac"] = l1dMiss / l1dAll
	}
	if l2All > 0 {
		o.layer["mem.l2_miss_frac"] = l2Miss / l2All
	}
}

// replayCore replays a seeded sample of the round's jobs through the core
// and the runner. It runs only when tracing.
func replayCore(o *outcome, tr *tracer, jobs []runner.Job, seed uint64) {
	if tr == nil {
		return
	}
	r := newRNG(seed, 6)
	ct := &coreTimes{}
	for i := 0; i < 6; i++ {
		j := jobs[r.intn(len(jobs))]
		op := tr.root("replay", 1)
		o.attempted++
		if _, err := ct.replay(op, &runner.Runner{MaxAttempts: 1}, j); err != nil {
			o.fail("replay %s/%s: %v", j.Config.Name, j.Mix.Name(), err)
		}
		op.end()
	}
	ct.report(o)
}
