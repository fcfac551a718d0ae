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

// cmp64 is the exact comparison-space distance the float32 path of m
// approximates: squared Euclidean for the LaneSq kernels, the metric
// itself for l1 and linf.
func cmp64(m Metric, a, b []float64) float64 {
	if m.Lane() == LaneSq {
		return geometry.SqDistVec(a, b)
	}
	return m.Dist(a, b)
}

// TestLanesMatchFloat64 checks every kernel's float32 path against its
// float64 kernel: the lane accumulators Lane selects, and SqDistRow32,
// agree with the exact comparison-space and squared distances up to
// float32 rounding, and Finish32 maps the exact comparison-space value to
// Dist. Dimensions cover SqDistRow32's unrolled body, its remainder loop,
// and both.
func TestLanesMatchFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, m := range All() {
		for _, dim := range []int{1, 3, 4, 7, 16} {
			p := randCloud(rng, 9, dim, m)
			p32 := rows32(p)
			for i := 0; i < p.N; i++ {
				q := p.At(i)
				lanes := make([]float32, p.N)
				for d := 0; d < dim; d++ {
					lane := make([]float32, p.N)
					for j := range lane {
						lane[j] = p32[j][d]
					}
					switch m.Lane() {
					case LaneSq:
						SqLane32(lanes, lane, p32[i][d])
					case LaneL1:
						L1Lane32(lanes, lane, p32[i][d])
					case LaneLInf:
						LInfLane32(lanes, lane, p32[i][d])
					default:
						t.Fatalf("%s: unknown lane op %d", m.Name(), m.Lane())
					}
				}
				for j := 0; j < p.N; j++ {
					exact := cmp64(m, q, p.At(j))
					if math.Abs(float64(lanes[j])-exact) > 1e-5*(1+exact) {
						t.Fatalf("%s dim=%d (%d,%d): lanes %v, exact %v", m.Name(), dim, i, j, lanes[j], exact)
					}
					sq := geometry.SqDistVec(q, p.At(j))
					if row := float64(SqDistRow32(p32[i], p32[j])); math.Abs(row-sq) > 1e-5*(1+sq) {
						t.Fatalf("%s dim=%d (%d,%d): SqDistRow32 %v, exact %v", m.Name(), dim, i, j, row, sq)
					}
					if want := m.Dist(q, p.At(j)); math.Abs(m.Finish32(exact)-want) > 1e-9*(1+want) {
						t.Fatalf("%s: Finish32(%v) = %v, want %v", m.Name(), exact, m.Finish32(exact), want)
					}
				}
			}
		}
	}
}

// TestCmpRadius32InvertsFinish32: a radius maps into comparison space so
// that `Finish32(cmp) <= r` iff `cmp <= CmpRadius32(r)`; the angular
// radius is clamped to the sphere's diameter.
func TestCmpRadius32InvertsFinish32(t *testing.T) {
	for _, m := range All() {
		for _, r := range []float64{0, 0.25, 1, 3} {
			want := r
			if _, ok := m.(Angular); ok {
				want = math.Min(r, math.Pi)
			}
			if got := m.Finish32(m.CmpRadius32(r)); math.Abs(got-want) > 1e-12 {
				t.Fatalf("%s: Finish32(CmpRadius32(%v)) = %v", m.Name(), r, got)
			}
		}
		if _, ok := m.(Angular); ok {
			if got := m.CmpRadius32(10); math.Abs(got-4) > 1e-12 {
				t.Fatalf("angular CmpRadius32 beyond pi = %v, want the squared diameter 4", got)
			}
		}
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
