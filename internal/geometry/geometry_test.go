package geometry

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randPoints(n, dim int, seed int64) Points {
	rng := rand.New(rand.NewSource(seed))
	p := NewPoints(n, dim)
	for i := range p.Data {
		p.Data[i] = rng.Float64() * 100
	}
	return p
}

func TestFromSlicesRoundTrip(t *testing.T) {
	rows := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	p := FromSlices(rows)
	got := p.Rows()
	for i := range rows {
		for k := range rows[i] {
			if got[i][k] != rows[i][k] {
				t.Fatalf("row %d mismatch", i)
			}
		}
	}
}

func TestDistProperties(t *testing.T) {
	p := randPoints(50, 3, 1)
	f := func(ai, bi uint8) bool {
		i, j := int(ai)%p.N, int(bi)%p.N
		d := p.Dist(i, j)
		if d != p.Dist(j, i) {
			return false
		}
		if i == j && d != 0 {
			return false
		}
		return d >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	p := randPoints(30, 4, 2)
	for i := 0; i < p.N; i++ {
		for j := 0; j < p.N; j++ {
			for k := 0; k < p.N; k += 7 {
				if p.Dist(i, j) > p.Dist(i, k)+p.Dist(k, j)+1e-12 {
					t.Fatalf("triangle inequality violated (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
}

func TestBoundingBoxContainsPoints(t *testing.T) {
	p := randPoints(100, 5, 3)
	idx := make([]int32, p.N)
	for i := range idx {
		idx[i] = int32(i)
	}
	b := BoundingBox(p, idx)
	for i := 0; i < p.N; i++ {
		for k, v := range p.At(i) {
			if v < b.Lo[k] || v > b.Hi[k] {
				t.Fatalf("point %d outside box in dim %d", i, k)
			}
		}
	}
	if SqDistPointBox(p.At(0), b) != 0 {
		t.Fatal("contained point has nonzero box distance")
	}
}

func TestBoxRadiusCoversBox(t *testing.T) {
	p := randPoints(64, 3, 4)
	idx := make([]int32, p.N)
	for i := range idx {
		idx[i] = int32(i)
	}
	b := BoundingBox(p, idx)
	ctr := b.Center(make([]float64, 3))
	r := b.Radius()
	for i := 0; i < p.N; i++ {
		if d := math.Sqrt(p.SqDistTo(i, ctr)); d > r+1e-9 {
			t.Fatalf("point %d at distance %v exceeds radius %v", i, d, r)
		}
	}
}

func TestSqDistBoxesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		a := randPoints(10, 2, int64(trial))
		bpts := NewPoints(10, 2)
		for i := range bpts.Data {
			bpts.Data[i] = rng.Float64()*100 + 50
		}
		ia := make([]int32, a.N)
		ib := make([]int32, bpts.N)
		for i := range ia {
			ia[i] = int32(i)
			ib[i] = int32(i)
		}
		ba := BoundingBox(a, ia)
		bb := BoundingBox(bpts, ib)
		lo := math.Sqrt(SqDistBoxes(ba, bb))
		hi := math.Sqrt(SqMaxDistBoxes(ba, bb))
		for i := 0; i < a.N; i++ {
			for j := 0; j < bpts.N; j++ {
				var s float64
				for k := 0; k < 2; k++ {
					d := a.At(i)[k] - bpts.At(j)[k]
					s += d * d
				}
				d := math.Sqrt(s)
				if d < lo-1e-9 {
					t.Fatalf("point distance %v below box lower bound %v", d, lo)
				}
				if d > hi+1e-9 {
					t.Fatalf("point distance %v above box upper bound %v", d, hi)
				}
			}
		}
	}
}

func TestWidestDim(t *testing.T) {
	b := Box{Lo: []float64{0, 0, 0}, Hi: []float64{1, 5, 2}}
	dim, w := b.WidestDim()
	if dim != 1 || w != 5 {
		t.Fatalf("got (%d,%v), want (1,5)", dim, w)
	}
}

func TestEmptyBoxExtend(t *testing.T) {
	b := EmptyBox(2)
	b.Extend([]float64{1, 2})
	b.Extend([]float64{-1, 5})
	if b.Lo[0] != -1 || b.Hi[0] != 1 || b.Lo[1] != 2 || b.Hi[1] != 5 {
		t.Fatalf("extend produced wrong box: %+v", b)
	}
	var c Box
	c = EmptyBox(2)
	c.ExtendBox(b)
	if c.Lo[0] != b.Lo[0] || c.Hi[1] != b.Hi[1] {
		t.Fatal("ExtendBox mismatch")
	}
}

// TestBoundedBoxDistances pins the early-exit contract of the bounded box
// distances: below bound the result equals the full scan exactly, and at
// or above bound the full distance is at least bound too.
func TestBoundedBoxDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	box := func(dim int) Box {
		b := EmptyBox(dim)
		b.Extend(randPoints(1, dim, rng.Int63()).At(0))
		b.Extend(randPoints(1, dim, rng.Int63()).At(0))
		return b
	}
	for trial := 0; trial < 200; trial++ {
		dim := 1 + trial%8
		a, b := box(dim), box(dim)
		lo, hi := SqDistBoxes(a, b), SqMaxDistBoxes(a, b)
		for _, bound := range []float64{0, lo / 2, lo, hi / 2, hi, 2*hi + 1, math.Inf(1)} {
			for _, c := range []struct {
				name        string
				full, bound float64
			}{
				{"min", lo, SqDistBoxesBounded(a, b, bound)},
				{"max", hi, SqMaxDistBoxesBounded(a, b, bound)},
			} {
				if c.bound < bound && c.bound != c.full {
					t.Fatalf("%s dim=%d bound=%v: %v below bound, full scan %v", c.name, dim, bound, c.bound, c.full)
				}
				if c.bound >= bound && c.full < bound {
					t.Fatalf("%s dim=%d bound=%v: %v certifies the bound, full scan %v", c.name, dim, bound, c.bound, c.full)
				}
			}
		}
	}
}

// TestSqDistKernelsAgree: the monomorphized 2D/3D kernels, the generic
// scan and the per-dimension row kernel compute the same squared distance.
func TestSqDistKernelsAgree(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 5} {
		p := randPoints(20, dim, int64(dim))
		kern := SqDistRowKernel(p)
		for i := 0; i < p.N; i++ {
			for j := 0; j < p.N; j++ {
				want := sqDistGeneric(p.At(i), p.At(j))
				if got := SqDistVec(p.At(i), p.At(j)); got != want {
					t.Fatalf("dim=%d: SqDistVec %v, generic %v", dim, got, want)
				}
				if got := kern(p.At(i), int32(j)); got != want {
					t.Fatalf("dim=%d: row kernel %v, generic %v", dim, got, want)
				}
			}
		}
	}
}

// TestBoxBuilders: the range and box-union builders agree with the
// index-list bounding box.
func TestBoxBuilders(t *testing.T) {
	p := randPoints(40, 3, 6)
	idx := make([]int32, p.N)
	for i := range idx {
		idx[i] = int32(i)
	}
	want := BoundingBox(p, idx)
	got := EmptyBox(3)
	BoundingBoxRange(&got, p, 0, p.N)
	left, right := BoundingBox(p, idx[:15]), BoundingBox(p, idx[15:])
	left.ExtendBox(right)
	for k := 0; k < 3; k++ {
		if got.Lo[k] != want.Lo[k] || got.Hi[k] != want.Hi[k] || left.Lo[k] != want.Lo[k] || left.Hi[k] != want.Hi[k] {
			t.Fatalf("dim %d: range [%v,%v], union [%v,%v], want [%v,%v]",
				k, got.Lo[k], got.Hi[k], left.Lo[k], left.Hi[k], want.Lo[k], want.Hi[k])
		}
	}
}

// TestPointSetConstructorsReject: malformed shapes panic, and no rows make
// an empty set.
func TestPointSetConstructorsReject(t *testing.T) {
	if p := FromSlices(nil); p.N != 0 {
		t.Fatalf("FromSlices(nil) has %d points", p.N)
	}
	for name, f := range map[string]func(){
		"negative n":   func() { NewPoints(-1, 2) },
		"zero dim":     func() { NewPoints(3, 0) },
		"ragged slice": func() { FromSlices([][]float64{{1, 2}, {3}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted", name)
				}
			}()
			f()
		}()
	}
}
