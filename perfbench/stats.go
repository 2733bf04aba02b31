package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values
// for even lengths), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs and how
// many samples lie beyond it. It fails unless at least minBeyond
// samples do, so a reported tail is never set by a handful of samples.
func percentile(xs []float64, p float64) (v float64, beyond int, err error) {
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	beyond = len(xs) - rank
	if beyond < minBeyond {
		return 0, beyond, fmt.Errorf("p%g of %d samples leaves %d beyond it, want ≥ %d", p, len(xs), beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], beyond, nil
}
