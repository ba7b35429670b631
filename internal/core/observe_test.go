package core

import (
	"testing"

	"shelfsim/internal/config"
)

// streamChecker records a core's event stream and checks its contract:
// per-thread retire seqs run 0, 1, 2, … without gaps; every retired op
// issued after the last squash that covered it; squashes arrive in cycle
// order.
type streamChecker struct {
	t           *testing.T
	nextRetire  []int64
	issued      []map[int64]bool
	kinds       [EventSquash + 1]int64
	lastSquash  int64
	contractErr int
}

func newStreamChecker(t *testing.T, threads int) *streamChecker {
	sc := &streamChecker{t: t, nextRetire: make([]int64, threads), issued: make([]map[int64]bool, threads), lastSquash: -1}
	for i := range sc.issued {
		sc.issued[i] = map[int64]bool{}
	}
	return sc
}

func (sc *streamChecker) errorf(format string, args ...any) {
	sc.t.Helper()
	if sc.contractErr++; sc.contractErr <= 5 {
		sc.t.Errorf(format, args...)
	}
}

func (sc *streamChecker) observe(ev Event) {
	sc.kinds[ev.Kind]++
	issued := sc.issued[ev.Tid]
	switch ev.Kind {
	case EventIssue:
		issued[ev.Seq] = true
	case EventRetire:
		if want := sc.nextRetire[ev.Tid]; ev.Seq != want {
			sc.errorf("t%d retired seq %d, want %d", ev.Tid, ev.Seq, want)
		}
		sc.nextRetire[ev.Tid] = ev.Seq + 1
		if !issued[ev.Seq] {
			sc.errorf("t%d retired seq %d without an issue since its last squash", ev.Tid, ev.Seq)
		}
		delete(issued, ev.Seq)
	case EventSquash:
		if ev.Cycle < sc.lastSquash {
			sc.errorf("squash at cycle %d after a squash at cycle %d", ev.Cycle, sc.lastSquash)
		}
		sc.lastSquash = ev.Cycle
		for seq := range issued {
			if seq >= ev.Seq {
				delete(issued, seq)
			}
		}
	}
}

// TestObserverDoesNotPerturbSimulation runs each configuration with and
// without an observer that records every event: the Result fingerprints
// must match, and the recorded stream must honor its contract.
func TestObserverDoesNotPerturbSimulation(t *testing.T) {
	allShelf := config.Shelf64(4, true)
	allShelf.Steer = config.SteerAllShelf
	allShelf.Name = "shelf64-allshelf"
	cases := []struct {
		cfg   config.Config
		names []string
	}{
		{config.Shelf64(4, true), []string{"ptrchase", "gups", "branchy", "prodcons"}},
		{config.Base64(2), []string{"branchy", "stream"}},
		{allShelf, []string{"gups", "prodcons", "matblock", "branchy"}},
	}
	const insts = 1500
	var squashes int64
	for _, tc := range cases {
		t.Run(tc.cfg.Name, func(t *testing.T) {
			plain, err := New(tc.cfg, kernelStreams(t, tc.names, insts))
			if err != nil {
				t.Fatal(err)
			}
			run(t, plain, 2_000_000)

			observed, err := New(tc.cfg, kernelStreams(t, tc.names, insts))
			if err != nil {
				t.Fatal(err)
			}
			sc := newStreamChecker(t, tc.cfg.Threads)
			observed.SetObserver(sc.observe)
			run(t, observed, 2_000_000)

			pr, or := plain.Result(), observed.Result()
			if a, b := pr.Fingerprint(), or.Fingerprint(); a != b {
				t.Errorf("observer changed the run: fingerprint %s without, %s with", a, b)
			}
			for tid, n := range sc.nextRetire {
				if n != insts {
					t.Errorf("t%d: %d retire events, want %d", tid, n, insts)
				}
			}
			if sc.kinds[EventIssue] < sc.kinds[EventRetire] {
				t.Errorf("%d issue events for %d retires", sc.kinds[EventIssue], sc.kinds[EventRetire])
			}
			if sc.kinds[EventStoreCommit] == 0 {
				t.Error("no store commits observed")
			}
			squashes += sc.kinds[EventSquash]
		})
	}
	if squashes == 0 {
		t.Error("no case squashed; the squash contract went unexercised")
	}
}
