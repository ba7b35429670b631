// Command shelfbench is shelfsim's end-to-end benchmark. It runs one of
// three workloads against a release build of the repository, checks the
// outputs, and prints every metric by name with its unit, ending with one
// JSON line:
//
//	bash shelfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// adds a traced segment, a CPU profile and a replay of the server path,
// and reports the per-layer metrics instead. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// metricDef is one reported metric. The tables below list every metric the
// benchmark reports and match BENCHMARK.json at the repository root.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "ops/s", "higher"},
	{"sim_insts_per_s", "insts/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
}

var perLayer = []metricDef{
	{"error_rate", "fraction", "lower"},
	{"hot_p50_ms", "ms", "lower"},
	{"hot_p99_ms", "ms", "lower"},
	{"hot_samples", "count", "higher"},
	{"cold_p50_ms", "ms", "lower"},
	{"cold_p99_ms", "ms", "lower"},
	{"cold_samples", "count", "higher"},
	{"core.run_ms", "ms", "lower"},
	{"core.new_us", "us", "lower"},
	{"core.ns_per_inst", "ns", "lower"},
	{"core.ns_per_cycle", "ns", "lower"},
	{"core.fetch.cpu_frac", "fraction", "lower"},
	{"core.dispatch.cpu_frac", "fraction", "lower"},
	{"core.issue.cpu_frac", "fraction", "lower"},
	{"core.complete.cpu_frac", "fraction", "lower"},
	{"core.retire.cpu_frac", "fraction", "lower"},
	{"core.squash.cpu_frac", "fraction", "lower"},
	{"mem.cpu_frac", "fraction", "lower"},
	{"workload.cpu_frac", "fraction", "lower"},
	{"core.sim_cycles", "count", "lower"},
	{"core.sim_retired", "count", "higher"},
	{"mem.l1d_miss_frac", "fraction", "lower"},
	{"mem.l2_miss_frac", "fraction", "lower"},
	{"asm.assemble_us", "us", "lower"},
	{"asm.sched_insts", "count", "lower"},
	{"request.resolve_us", "us", "lower"},
	{"request.cachekey_us", "us", "lower"},
	{"report.new_us", "us", "lower"},
	{"report.encode_us", "us", "lower"},
	{"report.decode_us", "us", "lower"},
	{"report.bytes", "bytes", "lower"},
	{"store.get_us", "us", "lower"},
	{"store.put_us", "us", "lower"},
	{"store.open_us_per_entry", "us", "lower"},
	{"store.hit_frac", "fraction", "higher"},
	{"serve.hot_handler_ms", "ms", "lower"},
	{"serve.cold_handler_ms", "ms", "lower"},
	{"client.overhead_ms", "ms", "lower"},
	{"serve.queue_wait_ms", "ms", "lower"},
	{"serve.store_hits", "count", "higher"},
	{"serve.dedup_hits", "count", "higher"},
	{"serve.executed", "count", "lower"},
	{"serve.rejected", "count", "lower"},
	{"runner.overhead_frac", "fraction", "lower"},
	{"harness.prewarm_s", "s", "lower"},
	{"harness.figures_s", "s", "lower"},
	{"harness.parallel_frac", "fraction", "higher"},
	{"harness.runs", "count", "lower"},
	{"chip.new_ms", "ms", "lower"},
	{"chip.step_ms", "ms", "lower"},
	{"chip.rebalance_us", "us", "lower"},
	{"chip.epochs", "count", "lower"},
	{"chip.migrations", "count", "lower"},
	{"chip.parallel_speedup", "x", "higher"},
	{"go.gc_cpu_frac", "fraction", "lower"},
	{"go.alloc_bytes_per_op", "bytes", "lower"},
	{"trace.overhead_frac", "fraction", "lower"},
	{"trace.unattributed_frac", "fraction", "lower"},
}

// runCfg is what every workload receives.
type runCfg struct {
	seed    uint64
	seconds float64
	nproc   int
	work    string      // scratch directory inside the checkout
	prof    bool        // take a CPU profile of the traced segment
	cal     *calibrator // the segment's reference-loop timings
}

// setupReps is how often a workload repeats its set-up; the median is
// reported.
const setupReps = 1024

// outcome is what one workload segment measured.
type outcome struct {
	attempted, failed int
	problems          []string // correctness failures, one line each
	e2e               map[string]float64
	layer             map[string]float64
	spans             []span
	digest            string
	digestOps         int
	allocBytes        float64 // heap bytes allocated during the segment
	gcCPUFrac         float64
	profile           []byte // gzipped pprof CPU profile of the segment
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records a failed or mis-checked operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(runCfg, *tracer) (*outcome, error){
	"sweep": runSweep,
	"serve": runServe,
	"chip":  runChip,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: sweep, serve or chip")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 20, "seconds to measure")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		work    = flag.String("work", ".shelfbench", "scratch directory for stores and traces")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *work); err != nil {
		fmt.Fprintf(os.Stderr, "shelfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, trace int, work string) error {
	if raceEnabled {
		return fmt.Errorf("refusing to benchmark a -race build")
	}
	fn, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (sweep, serve or chip)", name)
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	runDir := filepath.Join(work, fmt.Sprintf("run-%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	rc := runCfg{seed: seed, seconds: seconds, nproc: runtime.NumCPU(), work: runDir}

	env := map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"go": runtime.Version(), "store_fs": fsType(runDir),
	}
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)

	var attempted, failed int
	var problems []string
	out := map[string]float64{}
	var defs []metricDef
	var primary *outcome
	if trace == 0 {
		o, err := measured(fn, rc, nil)
		if err != nil {
			return err
		}
		primary = o
		defs = endToEnd
		out = o.e2e
		attempted, failed, problems = o.attempted, o.failed, o.problems
	} else {
		// The first untraced segment gives latencies, counts and the Go
		// runtime figures; the traced one gives spans and the CPU profile.
		// The tracing overhead compares the traced segment's throughput
		// with the mean of the untraced segments on either side of it, so
		// a process that speeds up as it warms does not read as negative
		// overhead.
		u, err := measured(fn, rc, nil)
		if err != nil {
			return err
		}
		tr := newTracer()
		trc := rc
		trc.prof = true
		t, err := measured(fn, trc, tr)
		if err != nil {
			return err
		}
		u2, err := measured(fn, rc, nil)
		if err != nil {
			return err
		}
		primary = u
		defs = perLayer
		for _, d := range perLayer {
			out[d.name] = 0
		}
		for k, v := range t.layer {
			out[k] = v
		}
		for k, v := range u.layer {
			out[k] = v
		}
		if t.profile != nil {
			shares, err := profileShares(t.profile)
			if err != nil {
				return err
			}
			for k, v := range shares {
				out[k] = v
			}
		}
		attempted = u.attempted + t.attempted + u2.attempted
		failed = u.failed + t.failed + u2.failed
		problems = append(append(u.problems, t.problems...), u2.problems...)
		out["error_rate"] = float64(failed) / float64(max(attempted, 1))
		out["go.gc_cpu_frac"] = u.gcCPUFrac
		out["go.alloc_bytes_per_op"] = u.allocBytes / float64(max(u.attempted, 1))
		out["trace.overhead_frac"] = 1 - 2*t.e2e["ops_per_s"]/(u.e2e["ops_per_s"]+u2.e2e["ops_per_s"])
		out["trace.unattributed_frac"] = unattributedFrac(t.spans)
		path := filepath.Join(work, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
		if err := writePerfetto(path, t.spans); err != nil {
			return err
		}
		fmt.Printf("trace %s (%d spans)\n", path, len(t.spans))
	}

	for _, p := range problems {
		fmt.Printf("problem %s\n", p)
	}
	fmt.Printf("sim_digest %s (%d ops)\n", primary.digest, primary.digestOps)
	fmt.Printf("error_rate %.6f (%d of %d)\n", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metricsOut := make(map[string]val, len(defs))
	for _, d := range defs {
		v, ok := out[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", name, d.name)
		}
		metricsOut[d.name] = val{v, d.unit}
		fmt.Printf("metric %-26s %14.6g %s\n", d.name, v, d.unit)
	}
	// What an untraced run measured beyond the end-to-end metrics (serve's
	// latencies, the deterministic counts) is printed for reading; the JSON
	// line carries per-layer metrics only on traced runs.
	if trace == 0 {
		for _, k := range sortedKeys(primary.layer) {
			fmt.Printf("info   %-26s %14.6g\n", k, primary.layer[k])
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed,
		"metrics": metricsOut,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measured runs one workload segment, adding the Go runtime's GC share
// and allocation volume, peak RSS and, when asked, a CPU profile.
func measured(fn func(runCfg, *tracer) (*outcome, error), rc runCfg, tr *tracer) (*outcome, error) {
	var prof bytes.Buffer
	if rc.prof {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	rc.cal = newCalibrator(rc.nproc)
	before := readRuntime()
	o, err := fn(rc, tr)
	after := readRuntime()
	if rc.prof {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}
	if rc.prof {
		o.profile = prof.Bytes()
	}
	o.allocBytes = after.alloc - before.alloc
	if cpu := after.cpu - before.cpu; cpu > 0 {
		o.gcCPUFrac = (after.gc - before.gc) / cpu
	}
	if tr != nil {
		o.spans = tr.snapshot()
	}
	// Host time at reference speed (calib.go).
	slow := rc.cal.slowdown()
	o.layer["host.slowdown"] = slow
	o.e2e["ops_per_s"] *= slow
	o.e2e["sim_insts_per_s"] *= slow
	o.e2e["setup_s"] /= slow
	o.e2e["peak_rss_mb"] = peakRSSMiB()
	return o, nil
}

type runtimeSample struct{ alloc, gc, cpu float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	f := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{alloc: f(0), gc: f(1), cpu: f(2)}
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// fsType names the filesystem holding dir; store.Put's fsync cost depends
// on it (about 0.23 ms on ext4, 0.024 ms on tmpfs).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
