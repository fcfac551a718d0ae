package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	ten := seq(10)
	for _, c := range []struct{ p, want float64 }{
		{10, 1}, {25, 3}, {50, 5}, {90, 9}, {95, 10}, {99, 10}, {100, 10},
	} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("p%g of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	// 99.9% of 1000 is exactly rank 999; float rounding must not push it
	// to 1000.
	if got := percentile(seq(1000), 99.9); got != 999 {
		t.Errorf("p99.9 of 1..1000 = %v, want 999", got)
	}
	if got := percentile(seq(1000), 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

// The expected values are Python's statistics.quantiles(data, n=4), the
// rule the run-to-run spread of a benchmark metric is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{3, 9, 1}, [3]float64{1, 3, 9}},
		{[]float64{0.5, 2.5, 1.5, 9, 4, 7.5, 3}, [3]float64{1.5, 3, 7.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := spread(seq(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n        int
		wantP    float64
		wantRank float64
	}{
		{10000, 95, 9500}, // the ladder stops at p95
		{200, 95, 190},    // exactly ten samples above p95
		{199, 90, 180},    // p95 would leave nine
		{100, 90, 90},
		{99, 100, 99}, // p90 would leave nine: the maximum
	} {
		p, v := tail(seq(c.n))
		if p != c.wantP || v != c.wantRank {
			t.Errorf("tail of %d samples = p%g %v, want p%g %v", c.n, p, v, c.wantP, c.wantRank)
		}
		if p < 100 && c.n-int(v) < 10 {
			t.Errorf("tail of %d samples leaves %d beyond, want >= 10", c.n, c.n-int(v))
		}
	}
}
