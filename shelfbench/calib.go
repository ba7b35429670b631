package main

import (
	"sync"
	"sync/atomic"
)

// Run-queue wait (clock.go) removes the time other tenants held the CPUs,
// but not the times the CPUs themselves ran slower: over tens of minutes
// the same code also ran up to twice as slowly per instruction on the
// shared machine, set-up time with it. So each run also times a fixed
// reference loop, written here and independent of the repository, at
// points where the workload is idle, and reports host time at reference
// speed: rates are multiplied, and set-up times divided, by the median
// loop time over refLoopS. A change to shelfsim leaves the loop alone, so
// it shows in full.

const (
	refLoopS      = 0.03 // the loop's host time at reference speed
	refLoopChunks = 64   // work is dealt in chunks, as the worker pools deal jobs
	refChunkSteps = 260000
	refTableBits  = 14 // 64 KiB per worker: too small to move the heap or RSS
)

// calibrator times the reference loop.
type calibrator struct {
	cpus    int
	tables  [][]uint32
	samples []float64
	sink    atomic.Uint32
}

func newCalibrator(cpus int) *calibrator {
	c := &calibrator{cpus: cpus, tables: make([][]uint32, cpus)}
	for w := range c.tables {
		t := make([]uint32, 1<<refTableBits)
		for i := range t {
			t[i] = uint32(i*2654435761+w) & (1<<refTableBits - 1)
		}
		c.tables[w] = t
	}
	return c
}

// sample runs the loop once on every CPU and records its host time.
func (c *calibrator) sample() {
	start := now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w, t := range c.tables {
		wg.Add(1)
		go func(w int, t []uint32) {
			defer wg.Done()
			x := uint32(w)
			for next.Add(1) <= refLoopChunks {
				for i := uint32(0); i < refChunkSteps; i++ {
					x = t[x] ^ i&(1<<refTableBits-1)
					x = (x*0x9e3779b1 + i) & (1<<refTableBits - 1)
				}
			}
			c.sink.Add(x)
		}(w, t)
	}
	wg.Wait()
	s, _ := since(start, c.cpus)
	c.samples = append(c.samples, s)
}

// slowdown returns how many times slower than reference speed the CPUs
// ran: the median loop time over refLoopS.
func (c *calibrator) slowdown() float64 {
	if len(c.samples) == 0 {
		return 1
	}
	return median(c.samples) / refLoopS
}
