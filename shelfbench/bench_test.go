package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"
)

func TestPercentileRefusesThinTails(t *testing.T) {
	mk := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // unsorted on purpose
		}
		return v
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 0, false},
		{20, 0.5, 10, true},
		{19, 0.5, 0, false},
		{0, 0.5, 0, false},
	} {
		got, err := percentile(mk(tc.n), tc.p)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("percentile(n=%d, p=%v) = %v, %v; want %v, ok=%v", tc.n, tc.p, got, err, tc.want, tc.ok)
		}
	}
	if _, err := percentile(mk(100), 1); err == nil {
		t.Error("p=1 accepted")
	}
}

func TestSelfTime(t *testing.T) {
	for _, tc := range []struct {
		name     string
		children [][2]int64
		want     int64
	}{
		{"no children", nil, 100},
		{"clipped to parent", [][2]int64{{-20, 10}, {90, 150}}, 80},
		{"outside parent", [][2]int64{{-20, -10}, {120, 130}}, 100},
		// Children from parallel goroutines overlap; the overlap counts once.
		{"overlapping", [][2]int64{{10, 50}, {30, 70}, {80, 90}}, 30},
		{"nested", [][2]int64{{10, 90}, {20, 30}}, 20},
	} {
		spans := []span{{ID: 1, Start: 0, End: 100}}
		for i, c := range tc.children {
			spans = append(spans, span{ID: int64(i + 2), Parent: 1, Start: c[0], End: c[1], Layer: "x"})
		}
		if got := selfTime(spans)[1]; got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestUnattributedFrac(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},                          // worker loop
		{ID: 2, Parent: 1, Start: 0, End: 50},                // structural op
		{ID: 3, Parent: 2, Start: 0, End: 45, Layer: "core"}, // layer call
		{ID: 4, Parent: 1, Start: 55, End: 100, Layer: "client"},
	}
	// Uncovered: 50..55 in the loop and 45..50 in the op.
	if got := unattributedFrac(spans); got != 0.1 {
		t.Errorf("unattributed %v, want 0.1", got)
	}
}

func TestSchedulesArePureFunctionsOfSeed(t *testing.T) {
	for _, seed := range []uint64{0, 1, 7, 1 << 40} {
		if a, b := sweepSchedule(seed, 40), sweepSchedule(seed, 40); !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: sweep schedule differs between calls", seed)
		}
		if a, b := chipSchedule(seed, 2, 40), chipSchedule(seed, 2, 40); !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: chip schedule differs between calls", seed)
		}
		if a, b := serveWriteSchedule(seed, 500), serveWriteSchedule(seed, 500); !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: serve schedule differs between calls", seed)
		}
	}
	if reflect.DeepEqual(chipSchedule(1, 2, 40), chipSchedule(2, 2, 40)) ||
		reflect.DeepEqual(serveWriteSchedule(1, 500), serveWriteSchedule(2, 500)) ||
		reflect.DeepEqual(sweepSchedule(1, 40), sweepSchedule(2, 40)) {
		t.Error("different seeds gave identical schedules")
	}
	progs, err := loadPrograms()
	if err != nil {
		t.Fatal(err)
	}
	// Every write-phase request is new.
	for _, seed := range []uint64{3, 4} {
		seen := map[string]bool{}
		for _, q := range serveWriteSchedule(seed, 2000) {
			b, _ := json.Marshal(serveRequest(seed, q, &progs))
			if seen[string(b)] {
				t.Fatalf("seed %d repeats a write-phase request: %s", seed, b)
			}
			seen[string(b)] = true
		}
	}
}

func TestClassSharesIdenticalAcrossSeeds(t *testing.T) {
	byClass := func(w []serveReq) (out [numClasses][]int) {
		for i, q := range w {
			out[q.Class] = append(out[q.Class], i)
		}
		return
	}
	var want [numClasses]int
	for i, seed := range []uint64{1, 2, 3, 99, 12345} {
		w := serveWriteSchedule(seed, 1600)
		bc := byClass(w)
		var write, read [numClasses]int
		for c := range bc {
			write[c] = len(bc[c])
		}
		for j := 0; j < 1600; j++ {
			read[w[serveReadPick(seed, j, &bc)].Class]++
		}
		if i == 0 {
			want = write
			if want != [numClasses]int{1200, 100, 100, 100, 100} {
				t.Fatalf("write shares %v", want)
			}
		}
		if write != want || read != want {
			t.Errorf("seed %d: write shares %v, read shares %v, want %v", seed, write, read, want)
		}

		// Each chip cycle deals every paper mix exactly once.
		cycle := chipSchedule(seed, 2, paperMixes/2)
		count := map[int]int{}
		for _, op := range cycle {
			for _, m := range op {
				count[m]++
			}
		}
		if len(count) != paperMixes {
			t.Errorf("seed %d: chip cycle covers %d mixes", seed, len(count))
		}

		// Each sweep cycle visits every window once.
		windows := map[int64]bool{}
		for _, r := range sweepSchedule(seed, sweepWindowKind) {
			windows[r.Insts] = true
		}
		if len(windows) != sweepWindowKind {
			t.Errorf("seed %d: sweep cycle has %d distinct windows", seed, len(windows))
		}
	}
}

func TestProfileShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); {
		_ = sweepSchedule(uint64(time.Now().UnixNano()), 50)
	}
	pprof.StopCPUProfile()
	shares, err := profileShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != len(profileBuckets) {
		t.Fatalf("%d buckets, want %d", len(shares), len(profileBuckets))
	}
	for k, v := range shares {
		if v != 0 { // nothing here runs the simulator
			t.Errorf("%s = %v, want 0", k, v)
		}
	}
	if b := bucketOf("shelfsim/internal/core/issue.go"); b != "core.issue.cpu_frac" {
		t.Errorf("issue.go buckets to %q", b)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the tables in main.go and the
// repository's BENCHMARK.json in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		EndToEnd []map[string]any `json:"end_to_end"`
		PerLayer []map[string]any `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []map[string]any, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, main.go %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i]["name"] != d.name || got[i]["unit"] != d.unit || got[i]["better"] != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %v, main.go %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
