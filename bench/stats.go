package main

// Order statistics for every number the benchmark reports: nearest-rank
// percentiles for latencies, the conventional median, quartiles computed the
// way Python's statistics.quantiles(values, n=4) computes them (the rule the
// run-to-run spread is judged by), and the rule that picks a tail
// percentile.

import (
	"math"
	"slices"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice: the smallest sample with at least p% of all samples at or
// below it. It returns NaN for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based position of the nearest-rank p-th percentile among n
// sorted samples.
func rank(n int, p float64) int {
	// The epsilon keeps p*n/100 from rounding just above an integer (99.9%
	// of 1000 samples is rank 999, not 1000).
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return max(1, min(r, n))
}

// median returns the middle sample, or the mean of the two middle samples
// for an even count; NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile with the
// "exclusive" interpolation of Python's statistics.quantiles(data, n=4):
// cut point i sits at position i*(n+1)/4 of the sorted data, clamped to the
// interior. A single sample is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		nan := math.NaN()
		return nan, nan, nan
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile range as a share of the median, the measure
// of run-to-run variation the benchmark's bounds are compared with.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}

// tailLadder lists the percentiles a tail may be reported at, highest first.
// It stops at p95: across runs with six seeds, the p99 of a run's few
// thousand k-NN latencies spread by up to 37% of its median (set by a
// handful of collisions with slow requests and scheduler stalls), the p95
// of the same runs by under 10%.
var tailLadder = []float64{95, 90}

// tail reports the highest ladder percentile that still has at least ten
// samples ranked above it. With fewer than 100 samples no ladder percentile
// qualifies and the maximum (p100) is reported instead.
func tail(sorted []float64) (p, value float64) {
	for _, p := range tailLadder {
		if len(sorted)-rank(len(sorted), p) >= 10 {
			return p, percentile(sorted, p)
		}
	}
	return 100, percentile(sorted, 100)
}
