package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile. With
// fewer, the percentile is one or two outliers and the helper refuses it.
const minTail = 10

// percentile returns the p-th quantile (0 < p < 1) of samples by the
// nearest-rank rule. It refuses, with an error, when fewer than minTail
// samples lie beyond the rank: a p99 needs at least 1000 samples, a p50
// at least 20.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", p)
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if n == 0 || n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d",
			p*100, n, max(n-rank, 0), minTail)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle value (mean of the two middle values for even n);
// 0 for no samples. Unlike percentile it is for summarizing repeated
// measurements of one quantity, not latency tails.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}
