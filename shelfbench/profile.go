package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile of a traced run is bucketed by source file into the
// core's pipeline stages and the memory and workload modules. A sample
// belongs to the innermost frame that falls in a bucket, so memory-system
// time called from issue counts as mem, not issue.

// profileBuckets maps a bucket name to source-path fragments, checked in
// order.
var profileBuckets = []struct {
	name  string
	files []string
}{
	{"core.fetch.cpu_frac", []string{"internal/core/fetch.go"}},
	{"core.dispatch.cpu_frac", []string{"internal/core/dispatch.go", "internal/core/steer.go", "internal/steer/"}},
	{"core.issue.cpu_frac", []string{"internal/core/issue.go", "internal/core/sched.go", "internal/core/classify.go"}},
	{"core.complete.cpu_frac", []string{"internal/core/events.go"}},
	{"core.retire.cpu_frac", []string{"internal/core/retire.go"}},
	{"core.squash.cpu_frac", []string{"internal/core/squash.go"}},
	{"mem.cpu_frac", []string{"internal/mem/"}},
	{"workload.cpu_frac", []string{"internal/workload/"}},
}

func bucketOf(file string) string {
	for _, b := range profileBuckets {
		for _, f := range b.files {
			if strings.Contains(file, f) {
				return b.name
			}
		}
	}
	return ""
}

// profileShares parses a gzipped pprof CPU profile and returns each
// bucket's share of the profile's total CPU time.
func profileShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	// Resolve each location to the bucket of its innermost bucketed line.
	funcFile := make(map[uint64]string, len(p.funcs))
	for id, fileIdx := range p.funcs {
		if fileIdx >= 0 && fileIdx < int64(len(p.strings)) {
			funcFile[id] = p.strings[fileIdx]
		}
	}
	locBucket := make(map[uint64]string, len(p.locs))
	for id, fns := range p.locs {
		for _, fn := range fns {
			if b := bucketOf(funcFile[fn]); b != "" {
				locBucket[id] = b
				break
			}
		}
	}
	out := make(map[string]float64, len(profileBuckets))
	for _, b := range profileBuckets {
		out[b.name] = 0
	}
	var total int64
	for _, s := range p.samples {
		total += s.value
		for _, loc := range s.locs {
			if b := locBucket[loc]; b != "" {
				out[b] += float64(s.value)
				break
			}
		}
	}
	if total == 0 {
		return out, nil
	}
	for k := range out {
		out[k] /= float64(total)
	}
	return out, nil
}

// profile holds the parts of profile.proto the bucketing needs.
type profile struct {
	samples []sample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]int64    // function id -> filename string index
	strings []string
}

type sample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample value (CPU nanoseconds)
}

var errProto = errors.New("profile: malformed protobuf")

// protoField is one decoded field: wire type 0 carries num, wire type 2
// carries data.
type protoField struct {
	tag  int
	wire int
	num  uint64
	data []byte
}

func varint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// fields decodes one message's fields.
func fields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return nil, errProto
		}
		b = b[n:]
		f := protoField{tag: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.num, n = varint(b)
			if n == 0 {
				return nil, errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errProto
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return nil, errProto
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errProto
			}
			b = b[4:]
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

// nums returns a repeated integer field's values, packed or not.
func (f protoField) nums() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.num}, nil
	}
	var out []uint64
	for b := f.data; len(b) > 0; {
		v, n := varint(b)
		if n == 0 {
			return nil, errProto
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	top, err := fields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	for _, f := range top {
		switch f.tag {
		case 2: // Sample
			sub, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			var s sample
			for _, g := range sub {
				v, err := g.nums()
				if err != nil {
					return nil, err
				}
				switch g.tag {
				case 1:
					s.locs = append(s.locs, v...)
				case 2:
					if len(v) > 0 {
						s.value = int64(v[len(v)-1])
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			sub, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range sub {
				switch g.tag {
				case 1:
					id = g.num
				case 4: // Line
					lf, err := fields(g.data)
					if err != nil {
						return nil, err
					}
					for _, h := range lf {
						if h.tag == 1 {
							fns = append(fns, h.num)
						}
					}
				}
			}
			p.locs[id] = fns
		case 5: // Function
			sub, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var file int64 = -1
			for _, g := range sub {
				switch g.tag {
				case 1:
					id = g.num
				case 4:
					file = int64(g.num)
				}
			}
			p.funcs[id] = file
		case 6:
			p.strings = append(p.strings, string(f.data))
		}
	}
	return p, nil
}
