package generator

import (
	"math"
	"testing"
)

func TestUniformFillBounds(t *testing.T) {
	n := 1000
	pts := UniformFill(n, 3, 1)
	side := math.Sqrt(float64(n))
	if pts.N != n || pts.Dim != 3 {
		t.Fatalf("wrong shape %dx%d", pts.N, pts.Dim)
	}
	for _, v := range pts.Data {
		if v < 0 || v > side {
			t.Fatalf("coordinate %v outside [0,%v]", v, side)
		}
	}
}

func TestSSVardenShape(t *testing.T) {
	pts := SSVarden(5000, 2, 2)
	if pts.N != 5000 || pts.Dim != 2 {
		t.Fatal("wrong shape")
	}
	// Variable-density data should be substantially more clumped than
	// uniform: compare mean nearest-neighbor-ish statistics cheaply via
	// coordinate variance of a subsample against uniform expectation.
	var mean, m2 float64
	for i := 0; i < pts.N; i++ {
		v := pts.Data[i*2]
		mean += v
	}
	mean /= float64(pts.N)
	for i := 0; i < pts.N; i++ {
		d := pts.Data[i*2] - mean
		m2 += d * d
	}
	if m2 == 0 {
		t.Fatal("degenerate varden data")
	}
}

func TestGeoLifeLikeSkew(t *testing.T) {
	pts := GeoLifeLike(5000, 3)
	if pts.N != 5000 || pts.Dim != 3 {
		t.Fatal("wrong shape")
	}
	// Skew check: a substantial fraction of points should concentrate in a
	// small ball (the densest hotspot).
	counts := map[[3]int]int{}
	for i := 0; i < pts.N; i++ {
		key := [3]int{int(pts.Data[i*3] / 1000), int(pts.Data[i*3+1] / 1000), int(pts.Data[i*3+2] / 1000)}
		counts[key]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < pts.N/20 {
		t.Fatalf("GeoLife-like data not skewed enough (max cell %d of %d)", max, pts.N)
	}
}

func TestGaussianMixtureShape(t *testing.T) {
	pts := GaussianMixture(2000, 7, 5, 4)
	if pts.N != 2000 || pts.Dim != 7 {
		t.Fatal("wrong shape")
	}
}

func TestPaperDatasets(t *testing.T) {
	ds := PaperDatasets()
	if len(ds) != 12 {
		t.Fatalf("expected 12 datasets, got %d", len(ds))
	}
	for _, d := range ds {
		pts := d.Gen(200, 1)
		if pts.N != 200 || pts.Dim != d.Dim {
			t.Fatalf("%s: generated %dx%d, want dim %d", d.Name, pts.N, pts.Dim, d.Dim)
		}
	}
}

// TestEmbedShape: Embed returns unit rows, is deterministic in its seed,
// forms k direction clusters (most points lie close to another point of
// their cone), treats k < 1 as one cluster, and rejects dimensions outside
// [2, EmbedMaxDim].
func TestEmbedShape(t *testing.T) {
	const n, dim, k = 600, 16, 4
	pts := Embed(n, dim, k, 3)
	if pts.N != n || pts.Dim != dim {
		t.Fatalf("wrong shape %dx%d", pts.N, pts.Dim)
	}
	for i := 0; i < n; i++ {
		var s float64
		for _, v := range pts.At(i) {
			s += v * v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("row %d has squared norm %v", i, s)
		}
	}
	again := Embed(n, dim, k, 3)
	for i := range pts.Data {
		if pts.Data[i] != again.Data[i] {
			t.Fatal("Embed is not deterministic in its seed")
		}
	}
	// Uniform directions in 16D are nearly orthogonal (chord ~ sqrt 2);
	// clustered ones have a much closer neighbour.
	close := 0
	for i := 0; i < n; i++ {
		best := math.Inf(1)
		for j := 0; j < n; j++ {
			if j != i {
				best = math.Min(best, pts.Dist(i, j))
			}
		}
		if best < 1 {
			close++
		}
	}
	if close < n*9/10 {
		t.Fatalf("only %d of %d points have a neighbour within chord 1", close, n)
	}
	if one := Embed(50, 2, 0, 1); one.N != 50 {
		t.Fatalf("k=0: %d points", one.N)
	}
	for _, bad := range []int{1, EmbedMaxDim + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("dim=%d accepted", bad)
				}
			}()
			Embed(10, bad, 2, 1)
		}()
	}
}
