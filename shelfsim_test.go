package shelfsim

import (
	"context"
	"testing"
)

// TestRunKernelsQuick runs a small embedded-config request end to end:
// every thread measures exactly its window and practical steering uses the
// shelf.
func TestRunKernelsQuick(t *testing.T) {
	cfg := Shelf64(2, true)
	warm := int64(200)
	res, err := Run(context.Background(), Request{
		Config: &cfg, Kernels: []string{"matblock", "branchy"}, Warmup: &warm, Insts: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Threads) != 2 {
		t.Fatalf("threads: %d", len(res.Threads))
	}
	for i, tr := range res.Threads {
		if tr.Retired != 500 || tr.CPI <= 0 {
			t.Errorf("thread %d: %+v", i, tr)
		}
	}
	if res.Stats.ShelfIssues == 0 {
		t.Error("practical steering should use the shelf")
	}
}

// TestRunKernelsByName checks that a request naming its kernels keeps the
// embedded config's name in the result.
func TestRunKernelsByName(t *testing.T) {
	cfg := Base64(2)
	res, err := Run(context.Background(), Request{
		Config: &cfg, Kernels: []string{"ilpmax", "fpdense"}, Insts: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Config != "base64" {
		t.Errorf("config = %q", res.Config)
	}
}

// TestRunMixErrors checks that Run itself, not only Resolve, refuses a
// malformed workload before simulating anything.
func TestRunMixErrors(t *testing.T) {
	two, one := Base64(2), Base64(1)
	cases := []struct {
		name string
		req  Request
	}{
		{"kernel count mismatch", Request{Config: &two, Kernels: []string{"matblock"}, Insts: 100}},
		{"unknown kernel", Request{Config: &one, Kernels: []string{"nope"}, Insts: 100}},
		{"zero instruction budget", Request{Config: &one, Kernels: []string{"matblock"}}},
		{"negative warmup", Request{Config: &one, Kernels: []string{"matblock"}, Insts: 100, Warmup: i64p(-1)}},
		{"nil stream", Request{Config: &one, Streams: []Stream{nil}, Insts: 100}},
	}
	for _, tc := range cases {
		if _, err := Run(context.Background(), tc.req); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestPresetAccessors(t *testing.T) {
	if len(Kernels()) < 10 {
		t.Error("kernel suite missing")
	}
	if len(PaperMixes(4)) != 28 {
		t.Error("paper mixes missing")
	}
	for _, cfg := range []Config{Base64(4), Base128(4), Shelf64(4, true), Shelf64(4, false)} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}
