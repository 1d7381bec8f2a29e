package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of samples by the
// nearest-rank rule. It refuses a percentile with fewer than ten samples
// beyond it: such a tail is one or two requests, not a distribution.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p, n, max(n-rank, 0), minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle sample, or the mean of the two middle ones; 0 for
// no samples.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
