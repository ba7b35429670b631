package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded only here, in the benchmark, around each call into a
// layer's public function; the program itself is not instrumented. Spans
// are kept in memory and written out when the run ends.

// span is one finished interval. Layer names the module whose public
// function the span times; structural spans (a worker's loop, one
// operation) have an empty layer, and their self time is the benchmark's
// own unattributed time.
type span struct {
	ID, Parent, Op int64
	Name, Layer    string
	Lane           int
	Start, End     int64 // ns since the tracer started
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans. A nil *tracer records nothing, so untraced runs
// call the same code with tracing off.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a span in progress.
type open struct {
	t      *tracer
	id     int64
	parent int64
	op     int64
	lane   int
	name   string
	layer  string
	start  time.Time
}

// root starts a structural span that begins a new operation ID on a lane.
func (t *tracer) root(name string, lane int) *open {
	if t == nil {
		return nil
	}
	id := t.ids.Add(1)
	return &open{t: t, id: id, op: id, lane: lane, name: name, start: time.Now()}
}

// child starts a span beneath o, in o's operation. layer is empty for a
// structural span.
func (o *open) child(name, layer string) *open {
	if o == nil {
		return nil
	}
	return &open{t: o.t, id: o.t.ids.Add(1), parent: o.id, op: o.op, lane: o.lane,
		name: name, layer: layer, start: time.Now()}
}

// remote starts a span whose parent was started elsewhere, such as a
// client call whose IDs arrived in request headers.
func (t *tracer) remote(parent, op int64, lane int, name, layer string) *open {
	if t == nil {
		return nil
	}
	return &open{t: t, id: t.ids.Add(1), parent: parent, op: op, lane: lane,
		name: name, layer: layer, start: time.Now()}
}

// end records the span and returns its duration.
func (o *open) end() time.Duration {
	if o == nil {
		return 0
	}
	now := time.Now()
	s := span{ID: o.id, Parent: o.parent, Op: o.op, Name: o.name, Layer: o.layer,
		Lane: o.lane, Start: int64(o.start.Sub(o.t.t0)), End: int64(now.Sub(o.t.t0))}
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, s)
	o.t.mu.Unlock()
	return now.Sub(o.start)
}

// timed runs f inside a child span of o.
func (o *open) timed(name, layer string, f func()) {
	c := o.child(name, layer)
	f()
	c.end()
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTime returns each span's duration minus the part of its interval
// covered by its children. Children are clipped to the parent, and
// children that overlap (parallel goroutines) are counted once.
func selfTime(spans []span) map[int64]int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	for i, iv := range clipped {
		switch {
		case i == 0:
			curA, curB = iv[0], iv[1]
		case iv[0] > curB:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		case iv[1] > curB:
			curB = iv[1]
		}
	}
	if len(clipped) > 0 {
		total += curB - curA
	}
	return total
}

// unattributedFrac is the share of root-span time that no layer span
// covers: the self time of structural spans over the roots' total.
func unattributedFrac(spans []span) float64 {
	self := selfTime(spans)
	var structural, roots int64
	for _, s := range spans {
		if s.Layer == "" {
			structural += self[s.ID]
		}
		if s.Parent == 0 {
			roots += s.dur()
		}
	}
	if roots == 0 {
		return 0
	}
	return float64(structural) / float64(roots)
}

// durations returns the durations, in ms, of every span with the name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// writePerfetto writes the spans as Chrome trace-event JSON, which
// ui.perfetto.dev and chrome://tracing open directly.
func writePerfetto(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, len(spans))
	for i, s := range spans {
		cat := s.Layer
		if cat == "" {
			cat = "bench"
		}
		evs[i] = event{Name: s.Name, Cat: cat, Ph: "X", Ts: float64(s.Start) / 1e3,
			Dur: float64(s.dur()) / 1e3, Pid: 1, Tid: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op}}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
