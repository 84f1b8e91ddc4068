package main

import (
	"math"
	"sort"
)

// tailSamples is how many samples must lie beyond a reported percentile:
// a p99 needs 1000 samples, a p90 100.
const tailSamples = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted
// samples: the smallest sample with at least q·n samples at or below it.
// It returns NaN for no samples.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (the mean of the two middle samples for
// an even count), NaN for none.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minSamples is the sample count a q-quantile needs so that tailSamples
// samples lie beyond it.
func minSamples(q float64) int {
	return int(math.Ceil(tailSamples/(1-q) - 1e-6))
}

// reportable reports whether n samples support the q-quantile under the
// tailSamples rule.
func reportable(n int, q float64) bool { return n >= minSamples(q) }
