package metric

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"parclust/internal/geometry"
)

func rows32(p geometry.Points) [][]float32 {
	out := make([][]float32, p.N)
	for i := range out {
		out[i] = make([]float32, p.Dim)
		for k, v := range p.At(i) {
			out[i][k] = float32(v)
		}
	}
	return out
}

// cmp64 is the exact comparison-space distance the float32 kernel of m
// approximates: squared Euclidean for the L2 family, the metric itself for
// l1 and linf.
func cmp64(k Kernel32, m Metric, a, b []float64) float64 {
	if k.Sq {
		return geometry.SqDistVec(a, b)
	}
	return m.Dist(a, b)
}

// TestKernel32MatchesFloat64 checks every built-in float32 family against
// its float64 kernel: the row kernel, finished into metric space, and the
// lane accumulators agree with the exact distance up to float32 rounding,
// and the exact point-box bounds bracket every comparison-space distance.
// Dimensions cover the unrolled body, the remainder loop, and both.
func TestKernel32MatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, m := range All() {
		k, ok := Kernel32For(m)
		if !ok || k.Name != m.Name() {
			t.Fatalf("%s: Kernel32For = (%q, %v)", m.Name(), k.Name, ok)
		}
		for _, dim := range []int{1, 3, 4, 7, 16} {
			p := randCloud(rng, 9, dim, m)
			p32 := rows32(p)
			box := cloudBox(p)
			for i := 0; i < p.N; i++ {
				q := p.At(i)
				lanes := make([]float32, p.N)
				for d := 0; d < dim; d++ {
					lane := make([]float32, p.N)
					for j := range lane {
						lane[j] = p32[j][d]
					}
					switch k.Op {
					case LaneSq:
						SqLane32(lanes, lane, p32[i][d])
					case LaneL1:
						L1Lane32(lanes, lane, p32[i][d])
					case LaneLInf:
						LInfLane32(lanes, lane, p32[i][d])
					}
				}
				lb, ub := k.PointBoxLB(q, box), k.PointBoxUB(q, box)
				for j := 0; j < p.N; j++ {
					exact := cmp64(k, m, q, p.At(j))
					row := float64(k.Row(p32[i], p32[j]))
					tol := 1e-5 * (1 + exact)
					if math.Abs(row-exact) > tol || math.Abs(float64(lanes[j])-exact) > tol {
						t.Fatalf("%s dim=%d (%d,%d): row %v, lanes %v, exact %v", m.Name(), dim, i, j, row, lanes[j], exact)
					}
					if want := m.Dist(q, p.At(j)); math.Abs(k.Finish(exact)-want) > 1e-9*(1+want) {
						t.Fatalf("%s: Finish(%v) = %v, want %v", m.Name(), exact, k.Finish(exact), want)
					}
					if exact < lb-1e-9 || exact > ub+1e-9 {
						t.Fatalf("%s dim=%d: distance %v outside point-box bounds [%v, %v]", m.Name(), dim, exact, lb, ub)
					}
				}
			}
		}
	}
}

// TestKernel32CmpRadiusInvertsFinish: a metric-space radius maps into
// comparison space so that `Finish(cmp) <= r` iff `cmp <= CmpRadius(r)`;
// the angular radius is clamped to the sphere's diameter.
func TestKernel32CmpRadiusInvertsFinish(t *testing.T) {
	for _, m := range All() {
		k, _ := Kernel32For(m)
		for _, r := range []float64{0, 0.25, 1, 3} {
			want := r
			if _, ok := m.(Angular); ok {
				want = math.Min(r, math.Pi)
			}
			if got := k.Finish(k.CmpRadius(r)); math.Abs(got-want) > 1e-12 {
				t.Fatalf("%s: Finish(CmpRadius(%v)) = %v", m.Name(), r, got)
			}
		}
		if _, ok := m.(Angular); ok {
			if got := k.CmpRadius(10); math.Abs(got-4) > 1e-12 {
				t.Fatalf("angular CmpRadius beyond pi = %v, want the squared diameter 4", got)
			}
		}
	}
}

// TestKernel32ForUnknownMetric: a metric outside the built-ins has no
// float32 family.
func TestKernel32ForUnknownMetric(t *testing.T) {
	type wrapped struct{ L2 }
	if _, ok := Kernel32For(wrapped{}); ok {
		t.Fatal("Kernel32For accepted an unknown metric")
	}
}

// TestMaxAbsCoord32 checks the float32 magnitude bound and its float64
// twin: rows at opposite extremes in every lane keep a finite squared
// distance, and ValidateRows32 rejects the first coordinate past the bound
// (or NaN), naming its point.
func TestMaxAbsCoord32(t *testing.T) {
	if MaxAbsCoord32(0) != MaxAbsCoord32(1) {
		t.Fatal("dim < 1 is not treated as 1")
	}
	for _, dim := range []int{1, 2, 16, 128} {
		bound := MaxAbsCoord32(dim)
		a, b := make([]float32, dim), make([]float32, dim)
		for k := range a {
			a[k], b[k] = float32(bound), float32(-bound)
		}
		if s := SqDistRow32(a, b); math.IsInf(float64(s), 0) || s > math.MaxFloat32/2 {
			t.Fatalf("dim=%d: extreme rows give squared distance %v", dim, s)
		}
		a64, b64 := make([]float64, dim), make([]float64, dim)
		for k := range a64 {
			a64[k], b64[k] = MaxAbsCoord64(dim), -MaxAbsCoord64(dim)
		}
		if s := geometry.SqDistVec(a64, b64); math.IsInf(s, 0) || s > math.MaxFloat64/2 {
			t.Fatalf("dim=%d: extreme float64 rows give squared distance %v", dim, s)
		}
		pts := geometry.NewPoints(3, dim)
		pts.Data[0] = bound
		pts.Data[dim] = -bound
		if err := ValidateRows32(pts); err != nil {
			t.Fatalf("dim=%d: rows at the bound rejected: %v", dim, err)
		}
		pts.Data[2*dim] = math.Nextafter(bound, math.Inf(1))
		if err := ValidateRows32(pts); err == nil || !strings.Contains(err.Error(), "point 2") {
			t.Fatalf("dim=%d: coordinate past the bound accepted or misreported: %v", dim, err)
		}
		pts.Data[2*dim] = math.NaN()
		if err := ValidateRows32(pts); err == nil {
			t.Fatalf("dim=%d: NaN accepted", dim)
		}
	}
}
