package metric

import (
	"math"
	"math/rand"
	"testing"

	"parclust/internal/geometry"
)

// TestBoundsSound is the property every kernel must satisfy for the k-d
// tree, WSPD, and MST pruning to be correct: for random point subsets A
// and B, BoxesLB(box(A), box(B)) lower-bounds and BoxesUB upper-bounds
// every realized cross distance, and PointBoxLB lower-bounds every
// point-to-box distance.
func TestBoundsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, m := range All() {
		for _, dim := range []int{1, 2, 3, 5} {
			for trial := 0; trial < 50; trial++ {
				a := randCloud(rng, 8, dim, m)
				b := randCloud(rng, 8, dim, m)
				boxA, boxB := cloudBox(a), cloudBox(b)
				lb := m.BoxesLB(boxA, boxB)
				ub := m.BoxesUB(boxA, boxB)
				if lb > ub+1e-12 {
					t.Fatalf("%s dim=%d: BoxesLB %v > BoxesUB %v", m.Name(), dim, lb, ub)
				}
				for i := 0; i < a.N; i++ {
					plb := m.PointBoxLB(a.At(i), boxB)
					for j := 0; j < b.N; j++ {
						d := m.Dist(a.At(i), b.At(j))
						if d < lb-1e-12 || d > ub+1e-12 {
							t.Fatalf("%s dim=%d: dist %v outside box bounds [%v, %v]",
								m.Name(), dim, d, lb, ub)
						}
						if d < plb-1e-12 {
							t.Fatalf("%s dim=%d: dist %v below PointBoxLB %v", m.Name(), dim, d, plb)
						}
					}
				}
			}
		}
	}
}

// TestDistAxioms checks symmetry, identity, and non-negativity for every
// kernel, and the triangle inequality for the true metrics (SqL2 is
// excluded by design).
func TestDistAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range All() {
		_, isSq := m.(SqL2)
		for trial := 0; trial < 200; trial++ {
			c := randCloud(rng, 3, 4, m)
			x, y, z := c.At(0), c.At(1), c.At(2)
			dxy, dyx := m.Dist(x, y), m.Dist(y, x)
			if dxy != dyx {
				t.Fatalf("%s: asymmetric: %v vs %v", m.Name(), dxy, dyx)
			}
			if m.Dist(x, x) != 0 {
				t.Fatalf("%s: Dist(x,x) = %v", m.Name(), m.Dist(x, x))
			}
			if dxy < 0 {
				t.Fatalf("%s: negative distance %v", m.Name(), dxy)
			}
			if !isSq {
				if m.Dist(x, z) > dxy+m.Dist(y, z)+1e-9 {
					t.Fatalf("%s: triangle inequality violated", m.Name())
				}
			}
		}
	}
}

func TestAngularMatchesArccosOfCosineSimilarity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var ang Angular
	for trial := 0; trial < 200; trial++ {
		a := randUnit(rng, 5)
		b := randUnit(rng, 5)
		var dot float64
		for k := range a {
			dot += a[k] * b[k]
		}
		want := math.Acos(math.Max(-1, math.Min(1, dot)))
		if got := ang.Dist(a, b); math.Abs(got-want) > 1e-9 {
			t.Fatalf("angle %v, want acos(cos-sim) %v", got, want)
		}
	}
}

func TestParseRoundTripsAndAliases(t *testing.T) {
	for _, m := range All() {
		got, err := Parse(m.Name())
		if err != nil {
			t.Fatalf("Parse(%q): %v", m.Name(), err)
		}
		if got.Name() != m.Name() {
			t.Fatalf("Parse(%q) resolved to %q", m.Name(), got.Name())
		}
	}
	for alias, want := range map[string]string{
		"euclidean": "l2", "sqeuclidean": "sql2", "manhattan": "l1",
		"chebyshev": "linf", "cosine": "angular",
	} {
		m, err := Parse(alias)
		if err != nil || m.Name() != want {
			t.Fatalf("Parse(%q) = (%v, %v), want %s", alias, m, err, want)
		}
	}
	if _, err := Parse("hamming"); err == nil {
		t.Fatal("Parse accepted an unknown kernel")
	}
}

func TestNormalizeRows(t *testing.T) {
	pts := geometry.FromSlices([][]float64{{3, 4}, {0, -2}})
	norm, err := NormalizeRows(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(norm.At(0)[0]-0.6) > 1e-15 || math.Abs(norm.At(0)[1]-0.8) > 1e-15 {
		t.Fatalf("row 0 not normalized: %v", norm.At(0))
	}
	if pts.At(0)[0] != 3 {
		t.Fatal("NormalizeRows mutated its input")
	}
	if _, err := NormalizeRows(geometry.FromSlices([][]float64{{1, 1}, {0, 0}})); err == nil {
		t.Fatal("NormalizeRows accepted a zero vector")
	}
}

// TestNormalizeRowsExtremeMagnitudes guards the hypot-style scaling: rows
// whose naive squared norm would overflow to +Inf or underflow to 0 must
// still normalize to the correct unit direction.
func TestNormalizeRowsExtremeMagnitudes(t *testing.T) {
	pts := geometry.FromSlices([][]float64{
		{1e200, 1e200},   // naive sum of squares overflows to +Inf
		{1e-200, 1e-200}, // naive sum of squares underflows to 0
		{1, 0},
	})
	norm, err := NormalizeRows(pts)
	if err != nil {
		t.Fatalf("valid directions rejected: %v", err)
	}
	invSqrt2 := 1 / math.Sqrt2
	for _, i := range []int{0, 1} {
		row := norm.At(i)
		if math.Abs(row[0]-invSqrt2) > 1e-15 || math.Abs(row[1]-invSqrt2) > 1e-15 {
			t.Fatalf("row %d normalized to %v, want [%v %v]", i, row, invSqrt2, invSqrt2)
		}
	}
	var ang Angular
	if d := ang.Dist(norm.At(0), norm.At(2)); math.Abs(d-math.Pi/4) > 1e-12 {
		t.Fatalf("angle after extreme-magnitude normalization is %v, want pi/4", d)
	}
}

// randCloud draws points in [0,100)^dim, unit-normalized for Angular.
func randCloud(rng *rand.Rand, n, dim int, m Metric) geometry.Points {
	p := geometry.NewPoints(n, dim)
	for i := range p.Data {
		p.Data[i] = rng.Float64()*100 + 0.001
	}
	if _, ok := m.(Angular); ok {
		norm, err := NormalizeRows(p)
		if err != nil {
			panic(err)
		}
		return norm
	}
	return p
}

func randUnit(rng *rand.Rand, dim int) []float64 {
	v := make([]float64, dim)
	var s float64
	for k := range v {
		v[k] = rng.NormFloat64()
		s += v[k] * v[k]
	}
	inv := 1 / math.Sqrt(s)
	for k := range v {
		v[k] *= inv
	}
	return v
}

func cloudBox(p geometry.Points) geometry.Box {
	b := geometry.EmptyBox(p.Dim)
	for i := 0; i < p.N; i++ {
		b.Extend(p.At(i))
	}
	return b
}
