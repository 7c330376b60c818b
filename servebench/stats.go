package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail percentile:
// a p90 over 50 samples would rest on 5 values and move with every run.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middles for an even
// count). xs must be non-empty; it is not modified.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailQuantile returns the nearest-rank q-quantile of xs, and false when
// fewer than minBeyond samples lie beyond it (the percentile is then not
// measured and must be reported absent, never as a stand-in value).
func tailQuantile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	k := int(math.Ceil(q * float64(n))) // 1-based rank
	if k < 1 {
		k = 1
	}
	if n-k < minBeyond {
		return 0, false
	}
	return sorted(xs)[k-1], true
}

// samplesFor is the sample count a tail percentile q needs before
// tailQuantile reports it.
func samplesFor(q float64) int {
	for n := minBeyond; ; n++ {
		if n-int(math.Ceil(q*float64(n))) >= minBeyond {
			return n
		}
	}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
