package main

// Seeded input generation. Every schedule below is a pure function of the
// seed: the program under test only ever sees the generated requests. Each
// schedule is built from blocks whose class shares are fixed, so two seeds
// produce different inputs with identical per-class proportions.

// rng is splitmix64: small, fast and stable across Go releases.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	return &rng{s: seed*0x9e3779b97f4a7c15 ^ stream*0xd1b54a32d192ed03}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of 0..n-1 (Fisher-Yates).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// --- sweep ---

const (
	sweepMixCount   = 4    // harness.MixCount per round
	sweepThreads    = 4    // SMT threads of the figure configurations
	sweepBaseInsts  = 1000 // per-thread measurement window
	sweepWindowStep = 8    // window offsets vary the results, not the cost
	sweepWindowKind = 5    // window offsets per balanced cycle
)

// sweepRound is one regeneration of Figs 10, 12 and 13 on a fresh harness.
type sweepRound struct {
	Insts int64
	// MixOrder is the order in which Prewarm receives the round's mixes.
	MixOrder []int
}

// sweepSchedule returns the first n rounds. Windows cycle through
// sweepWindowKind offsets in a seeded order, so every cycle of rounds
// simulates the same total work.
func sweepSchedule(seed uint64, n int) []sweepRound {
	r := newRNG(seed, 1)
	out := make([]sweepRound, 0, n)
	for len(out) < n {
		for _, k := range r.perm(sweepWindowKind) {
			if len(out) == n {
				break
			}
			out = append(out, sweepRound{
				Insts:    sweepBaseInsts + int64(k*sweepWindowStep),
				MixOrder: r.perm(sweepMixCount),
			})
		}
	}
	return out
}

// --- chip ---

const (
	chipThreads = 4    // SMT threads per core
	chipInsts   = 1000 // per-thread measurement window
	paperMixes  = 28
)

// chipSchedule returns the first n chip operations, each a list of `cores`
// paper-mix indices (one mix per core). A cycle deals a seeded permutation
// of the 28 mixes out to consecutive operations, so each mix runs equally
// often in every cycle.
func chipSchedule(seed uint64, cores, n int) [][]int {
	r := newRNG(seed, 2)
	out := make([][]int, 0, n)
	per := paperMixes / cores
	for len(out) < n {
		p := r.perm(paperMixes)
		for i := 0; i < per && len(out) < n; i++ {
			out = append(out, p[i*cores:(i+1)*cores])
		}
	}
	return out
}

// --- serve ---

// A serve request class. The class fixes the latency mode a request lands
// in: kernel requests are fast both cold and hot; program requests
// assemble on every submit, crc most expensively.
const (
	classKernel = iota
	classCRC
	classDotprod
	classListwalk
	classCoalesce
	numClasses
)

var classNames = [numClasses]string{"kernel", "crc", "dotprod", "listwalk", "coalesce"}

// serveBlock lists the classes of one block of 16 requests: 75% kernel
// requests (the fast mode both phases' p50 must land in) and 6.25% of each
// program (crc alone is the slow mode p99 must land in).
var serveBlock = [...]int{
	classKernel, classKernel, classKernel, classKernel,
	classKernel, classKernel, classKernel, classKernel,
	classKernel, classKernel, classKernel, classKernel,
	classCRC, classDotprod, classListwalk, classCoalesce,
}

const (
	serveBaseInsts   = 300 // single-thread small window
	serveWritePerSec = 100 // write-phase requests per requested second
)

var servePresets = [...]string{"base64", "shelf64-opt"}

// serveReq is one generated request, identified by its class and the
// class-local variant that makes it unique within the write phase.
type serveReq struct {
	Class   int
	Variant int
}

// serveWriteSchedule returns the n write-phase requests: blocks with the
// serveBlock shares in seeded order, and within each class the variants
// 0..k-1 in seeded order, so every request is new.
func serveWriteSchedule(seed uint64, n int) []serveReq {
	r := newRNG(seed, 3)
	classes := make([]int, 0, n)
	var count [numClasses]int
	for len(classes) < n {
		for _, i := range r.perm(len(serveBlock)) {
			if len(classes) == n {
				break
			}
			c := serveBlock[i]
			classes = append(classes, c)
			count[c]++
		}
	}
	var variants [numClasses][]int
	for c := range variants {
		variants[c] = r.perm(count[c])
	}
	out := make([]serveReq, n)
	for i, c := range classes {
		out[i] = serveReq{Class: c, Variant: variants[c][0]}
		variants[c] = variants[c][1:]
	}
	return out
}

// serveReadPick returns which write-phase request the i-th read-phase
// request repeats: block shares as in the write phase, and a seeded choice
// among the write requests of that class. byClass lists write indices per
// class. It is a pure function of (seed, i), so concurrent clients can
// claim indices in any order.
func serveReadPick(seed uint64, i int, byClass *[numClasses][]int) int {
	block := uint64(i / len(serveBlock))
	slot := newRNG(seed, 4+block).perm(len(serveBlock))[i%len(serveBlock)]
	idx := byClass[serveBlock[slot]]
	return idx[newRNG(seed, 1<<32+uint64(i)).intn(len(idx))]
}
