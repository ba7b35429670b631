package main

import (
	"context"
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"shelfsim"
	"shelfsim/client"
	"shelfsim/internal/asm"
	"shelfsim/internal/core"
	"shelfsim/internal/runner"
	"shelfsim/internal/serve"
	"shelfsim/internal/store"
	"shelfsim/internal/workload"
)

// The serve workload runs shelfd in-process on loopback, driven by one
// closed-loop client per CPU, each with its own connection. A write phase
// sends only new requests (each resolves, simulates and is stored); the
// server then drains and restarts on the same store; a read phase repeats
// write-phase requests, each answered from the store. Splitting the phases
// keeps store hits from queueing behind simulations, which would put the
// hot median on the edge between two latency modes.

// The programs are copies of testdata/asm, kept here so the benchmark's
// inputs do not change when the repository's fixtures do.
//
//go:embed programs/*.s
var programFS embed.FS

var programFiles = [numClasses]string{
	classCRC: "crc.s", classDotprod: "dotprod.s", classListwalk: "listwalk.s", classCoalesce: "coalesce.s",
}

const (
	restartReps   = 3  // warm restarts per run; the median is reported
	inProcChecks  = 8  // served reports compared with in-process runs
	replaySamples = 48 // requests whose server path is replayed when tracing
)

func loadPrograms() ([numClasses]string, error) {
	var src [numClasses]string
	for c, f := range programFiles {
		if f == "" {
			continue
		}
		b, err := programFS.ReadFile("programs/" + f)
		if err != nil {
			return src, err
		}
		src[c] = string(b)
	}
	return src, nil
}

// serveRequest builds the request for one write-phase entry. Variants walk
// the kernel (or program) and preset combinations first and then lengthen
// the window by one instruction, so every variant is a distinct
// simulation. The seed shifts every window, so another seed asks for
// different simulations of the same shape.
func serveRequest(seed uint64, q serveReq, progs *[numClasses]string) shelfsim.Request {
	base := serveBaseInsts + int64(seed%16)
	if q.Class == classKernel {
		names := workload.Names()
		combos := len(names) * len(servePresets)
		c := q.Variant % combos
		return shelfsim.Request{Preset: servePresets[c/len(names)],
			Kernels: []string{names[c%len(names)]}, Insts: base + int64(q.Variant/combos)}
	}
	return shelfsim.Request{Preset: servePresets[q.Variant%len(servePresets)],
		Programs: []string{progs[q.Class]}, Insts: base + int64(q.Variant/len(servePresets))}
}

// server is one shelfd instance on a loopback listener.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

// startServer opens the store, builds the service and starts listening. It
// returns the store.Open time separately.
func startServer(dir string, shards int, tr *tracer, handlerSpan string) (*server, time.Duration, error) {
	t := time.Now()
	st, err := store.Open(dir)
	if err != nil {
		return nil, 0, err
	}
	open := time.Since(t)
	srv := serve.New(serve.Options{Shards: shards, Store: st})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, errors.Join(err, srv.Close())
	}
	var h http.Handler = srv
	if tr != nil {
		h = handlerSpans(srv, tr, handlerSpan)
	}
	s := &server{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(),
		done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, open, nil
}

// stop drains admitted jobs, closes the listener and connections, and
// closes the service, which persists its counters to the store.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	s.srv.BeginDrain()
	err := s.srv.Wait(ctx)
	err = errors.Join(err, s.hs.Shutdown(ctx))
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.srv.Close())
}

// Span IDs travel from a client call to the server's handler in headers.
const (
	hdrSpan = "X-Shelfbench-Span"
	hdrOp   = "X-Shelfbench-Op"
	hdrLane = "X-Shelfbench-Lane"
)

type spanKey struct{}

// spanTransport copies the client call's span IDs into request headers.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if o, _ := r.Context().Value(spanKey{}).(*open); o != nil {
		r = r.Clone(r.Context())
		r.Header.Set(hdrSpan, strconv.FormatInt(o.id, 10))
		r.Header.Set(hdrOp, strconv.FormatInt(o.op, 10))
		r.Header.Set(hdrLane, strconv.Itoa(o.lane))
	}
	return t.base.RoundTrip(r)
}

// handlerSpans wraps the service with a span around Server.ServeHTTP.
func handlerSpans(h http.Handler, tr *tracer, name string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		op, _ := strconv.ParseInt(r.Header.Get(hdrOp), 10, 64)
		lane, _ := strconv.Atoi(r.Header.Get(hdrLane))
		s := tr.remote(parent, op, lane, name, "serve")
		h.ServeHTTP(w, r)
		s.end()
	})
}

// call is one client request's outcome. It keeps a summary, not the
// report, so the benchmark's own memory does not grow with throughput.
type call struct {
	idx int          // schedule index
	ms  float64      // client-observed latency
	at  float64      // completion, seconds into the phase
	fp  string       // result fingerprint
	sum *core.Result // simulated counts, kept for write-phase calls only
	obs bool         // the report carried telemetry
	err error
}

// drive runs `clients` closed-loop clients, each on its own connection,
// until next reports no more work, and returns every call.
func drive(url string, clients, lane0 int, tr *tracer, start time.Time, keepCounts bool,
	next func() (int, shelfsim.Request, bool)) []call {
	var mu sync.Mutex
	var out []call
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tp.CloseIdleConnections()
			var rt http.RoundTripper = tp
			if tr != nil {
				rt = spanTransport{tp}
			}
			cl := client.New(url)
			cl.SetHTTPClient(&http.Client{Transport: rt})
			root := tr.root("serve.client", lane)
			var mine []call
			for {
				i, req, ok := next()
				if !ok {
					break
				}
				sp := root.child("client.Run", "client")
				ctx := context.Background()
				if sp != nil {
					ctx = context.WithValue(ctx, spanKey{}, sp)
				}
				t := time.Now()
				rep, err := cl.Run(ctx, req)
				ms := float64(time.Since(t)) / 1e6
				sp.end()
				c := call{idx: i, ms: ms, at: time.Since(start).Seconds(), err: err,
					fp: rep.ResultFingerprint, obs: rep.Obs != nil}
				if keepCounts {
					c.sum = &core.Result{Cycles: rep.Cycles, Stats: rep.Stats, L1D: rep.L1D, L2: rep.L2}
				}
				mine = append(mine, c)
			}
			root.end()
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}(lane0 + k)
	}
	wg.Wait()
	return out
}

func runServe(rc runCfg, tr *tracer) (*outcome, error) {
	o := newOutcome()
	ctx := context.Background()
	progs, err := loadPrograms()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(rc.work, "store")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	nWrite := max(int(serveWritePerSec*rc.seconds), 4*len(serveBlock))
	wsched := serveWriteSchedule(rc.seed, nWrite)
	reqs := make([]shelfsim.Request, nWrite)
	for i, q := range wsched {
		reqs[i] = serveRequest(rc.seed, q, &progs)
		if reqs[i].Overrides != nil {
			return nil, fmt.Errorf("serve: requests must not override telemetry or invariant checking")
		}
	}
	clients := rc.nproc

	for i := 0; i < 3; i++ {
		rc.cal.sample()
	}
	st := now()
	srv, _, err := startServer(dir, rc.nproc, tr, "serve.ServeHTTP.cold")
	if err != nil {
		return nil, err
	}
	initial, _ := since(st, rc.nproc)

	// Write phase: every request is new. Each phase starts from a collected
	// heap, so garbage left by set-up does not land in its timing.
	runtime.GC()
	var wnext atomic.Int64
	t := time.Now()
	st = now()
	writes := drive(srv.url, clients, 0, tr, t, true, func() (int, shelfsim.Request, bool) {
		// The time cap only bounds the run on a pathologically slow machine;
		// the write phase normally ends on its count in about half of it.
		if time.Since(t).Seconds() >= rc.seconds {
			return 0, shelfsim.Request{}, false
		}
		i := int(wnext.Add(1) - 1)
		if i >= nWrite {
			return 0, shelfsim.Request{}, false
		}
		return i, reqs[i], true
	})
	writeS, writeWall := since(st, rc.nproc)
	rc.cal.sample()
	rc.cal.sample()

	// Warm restart, as a deployment restarts shelfd on its store.
	var restarts, opens []float64
	for k := 0; k < restartReps; k++ {
		if err := srv.stop(); err != nil {
			return nil, err
		}
		st := now()
		var open time.Duration
		srv, open, err = startServer(dir, rc.nproc, tr, "serve.ServeHTTP.hot")
		if err != nil {
			return nil, err
		}
		restart, _ := since(st, rc.nproc)
		restarts = append(restarts, restart)
		opens = append(opens, open.Seconds())
	}
	o.e2e["setup_s"] = initial + median(restarts)

	wfp := make([]string, nWrite)
	var byClass [numClasses][]int
	var coldMS, writeAt, writeInsts []float64
	var digestRes []*core.Result
	var done []int // the write-phase requests that succeeded
	for _, c := range writes {
		o.attempted++
		if !checkCall(o, c, "write") {
			continue
		}
		done = append(done, c.idx)
		wfp[c.idx] = c.fp
		byClass[wsched[c.idx].Class] = append(byClass[wsched[c.idx].Class], c.idx)
		coldMS = append(coldMS, c.ms)
		writeAt = append(writeAt, c.at)
		writeInsts = append(writeInsts, float64(c.sum.Stats.Retired))
	}
	sort.Ints(done) // completion order varies; seeded samples index this list
	digest := fnv.New64a()
	sort.Slice(writes, func(a, b int) bool { return writes[a].idx < writes[b].idx })
	for _, c := range writes {
		fmt.Fprintf(digest, "%s\n", wfp[c.idx])
		if c.err == nil {
			digestRes = append(digestRes, c.sum)
		}
	}
	for c := range byClass {
		if len(byClass[c]) == 0 {
			return nil, fmt.Errorf("serve: no %s request succeeded in the write phase", classNames[c])
		}
		sort.Ints(byClass[c])
	}

	// Read phase: every request repeats a write-phase request.
	runtime.GC()
	readFor := rc.seconds / 2
	var rnext atomic.Int64
	t = time.Now()
	st = now()
	reads := drive(srv.url, clients, 100, tr, t, false, func() (int, shelfsim.Request, bool) {
		if time.Since(t).Seconds() >= readFor {
			return 0, shelfsim.Request{}, false
		}
		i := int(rnext.Add(1) - 1)
		return i, reqs[serveReadPick(rc.seed, i, &byClass)], true
	})
	readS, readWall := since(st, rc.nproc)
	counters := srv.srv.Counters()
	if err := srv.stop(); err != nil {
		return nil, err
	}
	for i := 0; i < 3; i++ {
		rc.cal.sample()
	}

	var hotMS, readAt []float64
	for _, c := range reads {
		o.attempted++
		if !checkCall(o, c, "read") {
			continue
		}
		if w := serveReadPick(rc.seed, c.idx, &byClass); c.fp != wfp[w] {
			o.fail("serve: read %d repeats write %d but returned %s, not %s",
				c.idx, w, c.fp, wfp[w])
			continue
		}
		hotMS = append(hotMS, c.ms)
		readAt = append(readAt, c.at)
	}
	if counters.Executed != int64(len(done)) {
		o.fail("serve: %d simulations executed for %d new requests; the store missed repeats",
			counters.Executed, len(done))
	}

	// A seeded sample of served reports must equal in-process runs.
	r := newRNG(rc.seed, 8)
	for k := 0; k < inProcChecks; k++ {
		i := done[r.intn(len(done))]
		o.attempted++
		rep, err := shelfsim.RunReport(ctx, reqs[i])
		if err != nil || rep.ResultFingerprint != wfp[i] {
			o.fail("serve: write %d served %q, in-process %q (%v)", i, wfp[i], rep.ResultFingerprint, err)
		}
	}

	// Each phase's rate is the median over one-second windows; the two
	// combine as completed operations over the time they take at those
	// rates. Windows are cut in wall time and scaled to host seconds by
	// the phase's share of wall time the benchmark had the CPUs.
	ws, rs := writeWall/writeS, readWall/readS
	writeRate := windowRate(writeAt, nil, writeWall) * ws
	readRate := windowRate(readAt, nil, readWall) * rs
	nw, nr := float64(len(writeAt)), float64(len(readAt))
	o.e2e["ops_per_s"] = (nw + nr) / (nw/writeRate + nr/readRate)
	o.e2e["sim_insts_per_s"] = windowRate(writeAt, writeInsts, writeWall) * ws
	o.layer["host.wait_frac"] = 1 - (writeS+readS)/(writeWall+readWall)
	o.digest = fmt.Sprintf("%016x", digest.Sum64())
	o.digestOps = len(writes)
	simCounts(o, digestRes)
	latencies(o, "cold", coldMS)
	latencies(o, "hot", hotMS)
	o.layer["serve.store_hits"] = float64(counters.StoreHits)
	o.layer["serve.dedup_hits"] = float64(counters.DedupHits)
	o.layer["serve.executed"] = float64(counters.Executed)
	o.layer["serve.rejected"] = float64(counters.RejectedQueueFull + counters.RejectedDraining)
	if counters.Submitted > 0 {
		o.layer["store.hit_frac"] = float64(counters.StoreHits) / float64(counters.Submitted)
	}
	o.layer["store.open_us_per_entry"] = median(opens) * 1e6 / float64(max(len(done), 1))

	if tr != nil {
		if err := serveReplay(o, tr, rc, reqs, wfp, done, &progs, wsched); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// windowRate returns the median, over the whole one-second windows of a
// phase lasting span seconds, of the amount completed per second: the
// count of completions, or the sum of amount when given. A phase shorter
// than three windows reports its overall rate.
func windowRate(at, amount []float64, span float64) float64 {
	n, width := int(span), 1.0
	if n < 3 {
		n, width = 1, span
	}
	per := make([]float64, n)
	for i, t := range at {
		w := int(t / width)
		switch {
		case n == 1:
			w = 0
		case w >= n:
			continue // the partial window at the end
		}
		if amount == nil {
			per[w]++
		} else {
			per[w] += amount[i]
		}
	}
	for i := range per {
		per[i] /= width
	}
	return median(per)
}

// checkCall counts a failed call or a report that carries telemetry.
func checkCall(o *outcome, c call, phase string) bool {
	switch {
	case c.err != nil:
		o.fail("serve: %s %d: %v", phase, c.idx, c.err)
	case c.obs:
		o.fail("serve: %s %d: telemetry on the timed path", phase, c.idx)
	default:
		return true
	}
	return false
}

// latencies records a phase's p50 and p99 with the sample count. A
// percentile without ten samples beyond it is refused and reported as a
// problem line, never printed as a number.
func latencies(o *outcome, phase string, ms []float64) {
	o.layer[phase+"_samples"] = float64(len(ms))
	for _, p := range []struct {
		name string
		q    float64
	}{{"_p50_ms", 0.5}, {"_p99_ms", 0.99}} {
		v, err := percentile(ms, p.q)
		if err != nil {
			o.problems = append(o.problems, fmt.Sprintf("%s%s refused: %v", phase, p.name, err))
			continue
		}
		o.layer[phase+p.name] = v
	}
}

// serveReplay re-runs a seeded sample of write-phase requests through the
// server's path call by call — Resolve, CacheKey, store.Get (a hit on the
// run's store), runner.Execute, NewReport, JSON encode and decode, and
// store.Put into a scratch store — plus the assembler and the core on
// their own, timing each layer in isolation.
func serveReplay(o *outcome, tr *tracer, rc runCfg, reqs []shelfsim.Request, wfp []string,
	done []int, progs *[numClasses]string, wsched []serveReq) error {
	st, err := store.Open(filepath.Join(rc.work, "store"))
	if err != nil {
		return err
	}
	scratchDir := filepath.Join(rc.work, "replay-store")
	if err := os.RemoveAll(scratchDir); err != nil {
		return err
	}
	scratch, err := store.Open(scratchDir)
	if err != nil {
		return err
	}
	// The runner serve.New builds.
	run := &runner.Runner{Timeout: 2 * time.Minute, CyclesPerInst: shelfsim.DefaultMaxCyclesPerInst, MaxAttempts: 1}
	r := newRNG(rc.seed, 9)
	ct := &coreTimes{}
	var bytes, sched []float64
	for k := 0; k < replaySamples; k++ {
		i := done[r.intn(len(done))]
		op := tr.root("replay", 200)
		o.attempted++
		n, err := replayOne(op, run, ct, st, scratch, reqs[i], wfp[i])
		if err == nil && wsched[i].Class != classKernel {
			var p *asm.Program
			op.timed("asm.Assemble", "asm", func() { p, err = asm.Assemble(progs[wsched[i].Class], asm.Options{}) })
			if err == nil {
				sched = append(sched, float64(p.ScheduleLen()))
			}
		}
		op.end()
		if err != nil {
			o.fail("serve replay of write %d: %v", i, err)
			continue
		}
		bytes = append(bytes, float64(n))
	}
	ct.report(o)
	spans := tr.snapshot()
	us := func(name string) float64 { return median(durations(spans, name)) * 1e3 }
	o.layer["request.resolve_us"] = us("request.Resolve")
	o.layer["request.cachekey_us"] = us("request.CacheKey")
	o.layer["store.get_us"] = us("store.Get")
	o.layer["store.put_us"] = us("store.Put")
	o.layer["report.new_us"] = us("report.New")
	o.layer["report.encode_us"] = us("report.Encode")
	o.layer["report.decode_us"] = us("report.Decode")
	o.layer["report.bytes"] = median(bytes)
	o.layer["asm.assemble_us"] = us("asm.Assemble")
	o.layer["asm.sched_insts"] = median(sched)

	hot := median(durations(spans, "serve.ServeHTTP.hot"))
	cold := median(durations(spans, "serve.ServeHTTP.cold"))
	o.layer["serve.hot_handler_ms"] = hot
	o.layer["serve.cold_handler_ms"] = cold
	phases := 0.0
	for _, n := range []string{"request.Resolve", "request.CacheKey", "runner.Execute",
		"report.New", "report.Encode", "store.Put"} {
		phases += median(durations(spans, n))
	}
	o.layer["serve.queue_wait_ms"] = cold - phases
	self := selfTime(spans)
	var overhead []float64
	for _, s := range spans {
		if s.Name == "client.Run" {
			overhead = append(overhead, float64(self[s.ID])/1e6)
		}
	}
	o.layer["client.overhead_ms"] = median(overhead)
	return nil
}

// replayOne replays the server's path for one request and returns the
// encoded report's size.
func replayOne(op *open, run *runner.Runner, ct *coreTimes, st, scratch *store.Store,
	req shelfsim.Request, wantFP string) (int, error) {
	var rv shelfsim.Resolved
	var err error
	op.timed("request.Resolve", "request", func() { rv, err = req.Resolve() })
	if err != nil {
		return 0, err
	}
	var key string
	op.timed("request.CacheKey", "request", func() { key = rv.CacheKey() })
	var hit shelfsim.Report
	var ok bool
	op.timed("store.Get", "store", func() { hit, ok = st.Get(key) })
	if !ok || hit.ResultFingerprint != wantFP {
		return 0, fmt.Errorf("store.Get: hit=%v fingerprint %q, want %q", ok, hit.ResultFingerprint, wantFP)
	}
	res, err := ct.replay(op, run, runner.Job{Config: rv.Config, Mix: rv.Mix,
		Programs: rv.Programs, Warmup: rv.Warmup, Measure: rv.Insts})
	if err != nil {
		return 0, err
	}
	var rep shelfsim.Report
	op.timed("report.New", "report", func() { rep = shelfsim.NewReport(rv, *res) })
	var data []byte
	op.timed("report.Encode", "report", func() { data, err = json.Marshal(rep) })
	if err != nil {
		return 0, err
	}
	op.timed("report.Decode", "report", func() { _, err = shelfsim.DecodeReport(data) })
	if err != nil {
		return 0, err
	}
	op.timed("store.Put", "store", func() { err = scratch.Put(key, rep) })
	if err != nil {
		return 0, err
	}
	if rep.ResultFingerprint != wantFP {
		return 0, fmt.Errorf("replayed fingerprint %s, served %s", rep.ResultFingerprint, wantFP)
	}
	return len(data), nil
}
