package geometry

import (
	"fmt"
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
	b := EmptyBox(5)
	BoundingBoxRange(&b, p, 0, p.N)
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
	b := EmptyBox(3)
	BoundingBoxRange(&b, p, 0, p.N)
	ctr := b.Center(make([]float64, 3))
	r := b.Radius()
	for i := 0; i < p.N; i++ {
		if d := math.Sqrt(SqDistVec(p.At(i), ctr)); d > r+1e-9 {
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
		ba, bb := EmptyBox(2), EmptyBox(2)
		BoundingBoxRange(&ba, a, 0, a.N)
		BoundingBoxRange(&bb, bpts, 0, bpts.N)
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
}

// TestBoundedBoxDistances pins the early-exit contract of the bounded
// distances: below bound the result equals the full scan exactly, and at
// or above bound the full distance is at least bound too. For the vector
// distance the full scan is SqDistVec itself, so a pair the bounded scan
// rejects is one whose SqDistVec weight fails the same threshold.
func TestBoundedBoxDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	box := func(dim int) Box {
		b := EmptyBox(dim)
		b.Extend(randPoints(1, dim, rng.Int63()).At(0))
		b.Extend(randPoints(1, dim, rng.Int63()).At(0))
		return b
	}
	for trial := 0; trial < 400; trial++ {
		dim := 1 + trial%40
		a, b := box(dim), box(dim)
		u, v := randPoints(1, dim, rng.Int63()).At(0), randPoints(1, dim, rng.Int63()).At(0)
		checkBounded(t, dim, a, b, u, v, rng.Float64()*SqDistVec(u, v))
	}
}

// checkBounded checks every bounded kernel's contract on one input, at
// the extra bounds, at bounds below, at and above each full value, and at
// 0 and +Inf.
func checkBounded(t *testing.T, dim int, a, b Box, u, v []float64, extra ...float64) {
	t.Helper()
	lo, hi := SqDistBoxes(a, b), SqMaxDistBoxes(a, b)
	pb, uv := SqDistPointBox(u, b), SqDistVec(u, v)
	bounds := append(extra, 0, lo/2, lo, hi/2, hi, 2*hi+1, pb, pb/2, uv, uv/2, math.Nextafter(uv, 0), math.Inf(1))
	for _, bound := range bounds {
		for _, c := range []struct {
			name        string
			full, bound float64
		}{
			{"min", lo, SqDistBoxesBounded(a, b, bound)},
			{"max", hi, SqMaxDistBoxesBounded(a, b, bound)},
			{"point-box", pb, SqDistPointBoxBounded(u, b, bound)},
			{"vec", uv, SqDistVecBounded(u, v, bound)},
		} {
			if c.bound < bound && math.Float64bits(c.bound) != math.Float64bits(c.full) {
				t.Fatalf("%s dim=%d bound=%v: %v below bound, full scan %v", c.name, dim, bound, c.bound, c.full)
			}
			if c.bound >= bound && c.full < bound {
				t.Fatalf("%s dim=%d bound=%v: %v certifies the bound, full scan %v", c.name, dim, bound, c.bound, c.full)
			}
		}
	}
}

// refSqDistBoxes, refSqDistBoxesBounded and refSqDistPointBox are the
// comparison-per-dimension box bounds the branch-free kernels replaced;
// the kernels must return their values bit for bit.
func refSqDistBoxes(a, b Box) float64 {
	var s float64
	for k := range a.Lo {
		var d float64
		switch {
		case b.Lo[k] > a.Hi[k]:
			d = b.Lo[k] - a.Hi[k]
		case a.Lo[k] > b.Hi[k]:
			d = a.Lo[k] - b.Hi[k]
		}
		s += d * d
	}
	return s
}

func refSqDistBoxesBounded(a, b Box, bound float64) float64 {
	var s float64
	for k := range a.Lo {
		var d float64
		switch {
		case b.Lo[k] > a.Hi[k]:
			d = b.Lo[k] - a.Hi[k]
		case a.Lo[k] > b.Hi[k]:
			d = a.Lo[k] - b.Hi[k]
		default:
			continue
		}
		s += d * d
		if s >= bound {
			return s
		}
	}
	return s
}

func refSqDistPointBox(q []float64, b Box) float64 {
	var s float64
	for k, v := range q {
		var d float64
		switch {
		case v < b.Lo[k]:
			d = b.Lo[k] - v
		case v > b.Hi[k]:
			d = v - b.Hi[k]
		}
		s += d * d
	}
	return s
}

// checkBoxBoundsMatchReference fails unless the box kernels return the
// reference values bit for bit. The bounded kernel is compared at every
// bound > 0. A bound <= 0 is met before the first term: the kernel stops
// there, while the reference, which skips the test in overlapping
// dimensions, stops at the first disjoint one. Both only certify the bound
// then, and the contract check covers them.
func checkBoxBoundsMatchReference(t *testing.T, a, b Box, q []float64, bounds ...float64) {
	t.Helper()
	same := func(name string, got, want float64) {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: %v (%#x), reference %v (%#x); a=%v b=%v q=%v",
				name, got, math.Float64bits(got), want, math.Float64bits(want), a, b, q)
		}
	}
	full := refSqDistBoxes(a, b)
	same("SqDistBoxes", SqDistBoxes(a, b), full)
	same("SqDistBoxes reversed", SqDistBoxes(b, a), refSqDistBoxes(b, a))
	same("SqDistPointBox", SqDistPointBox(q, b), refSqDistPointBox(q, b))
	bounds = append(bounds, full, full/2, math.Nextafter(full, 0), math.Nextafter(full, math.Inf(1)), math.Inf(1))
	for _, bound := range bounds {
		if bound > 0 {
			same(fmt.Sprintf("SqDistBoxesBounded(%v)", bound), SqDistBoxesBounded(a, b, bound), refSqDistBoxesBounded(a, b, bound))
		}
	}
}

// boxAlphabet holds the coordinates the reference comparisons draw from:
// values that tie, ±0, subnormals, and ±MaxFloat64, whose differences
// overflow to ±Inf.
var boxAlphabet = []float64{
	0, math.Copysign(0, -1), 1, -1, 2, 0.5, 3, -7, 1e-300, -1e-300,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64, math.MaxFloat64 / 2, 1e308,
}

// boxFrom returns the box spanning x and y coordinate-wise.
func boxFrom(x, y []float64) Box {
	b := Box{Lo: make([]float64, len(x)), Hi: make([]float64, len(x))}
	for k := range x {
		b.Lo[k], b.Hi[k] = min(x[k], y[k]), max(x[k], y[k])
		if x[k] == y[k] { // keep the sign of a zero as drawn
			b.Lo[k], b.Hi[k] = x[k], y[k]
		}
	}
	return b
}

// TestBoxBoundsMatchBranchyReference compares the branch-free box bounds
// with the comparison-per-dimension reference in dimensions 1–40, over
// overlapping, touching (lo == hi) and disjoint faces, point boxes, ±0
// and coordinates whose differences overflow to ±Inf.
func TestBoxBoundsMatchBranchyReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	draw := func(dim, mode int) []float64 {
		v := make([]float64, dim)
		for k := range v {
			switch mode {
			case 0: // small integers: many ties and touching faces
				v[k] = float64(rng.Intn(9)) - 4
			case 1:
				v[k] = boxAlphabet[rng.Intn(len(boxAlphabet))]
			default: // full mantissas
				v[k] = rng.NormFloat64() * 10
			}
		}
		return v
	}
	for dim := 1; dim <= 40; dim++ {
		for trial := 0; trial < 300; trial++ {
			mode := trial % 3
			a := boxFrom(draw(dim, mode), draw(dim, mode))
			b := boxFrom(draw(dim, mode), draw(dim, mode))
			q := draw(dim, mode)
			switch trial % 5 {
			case 0: // point boxes
				p := draw(dim, mode)
				a = boxFrom(p, p)
			case 1: // b's lower face touches a's upper face in every dimension
				hi := draw(dim, mode)
				for k := range b.Lo {
					b.Lo[k], b.Hi[k] = a.Hi[k], max(a.Hi[k], hi[k])
				}
			}
			checkBoxBoundsMatchReference(t, a, b, q, rng.Float64()*float64(dim), 1)
			checkBounded(t, dim, a, b, q, draw(dim, mode))
		}
	}
}

// FuzzBoxBounds checks the box kernels against the branchy reference and
// every bounded kernel's contract on inputs decoded from the fuzz data:
// data[0] picks the dimension (1–40), and each following byte c picks a
// coordinate, from boxAlphabet when its high bit is set and as (c-64)/3
// otherwise (thirds have full mantissas, and every third value ties),
// filling two corners of each box and then the two points in turn.
func FuzzBoxBounds(f *testing.F) {
	f.Add([]byte{2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 2.5)
	f.Add([]byte{3, 0x8c, 0x8d, 0x80, 0x81, 0x8c, 0x8d, 0x82, 0x83, 0x84}, 1e300)
	f.Add([]byte{16, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 0x80, 0x81}, 0.0)
	f.Fuzz(func(t *testing.T, data []byte, bound float64) {
		if len(data) < 1 || math.IsNaN(bound) {
			return
		}
		dim := 1 + int(data[0])%40
		coord := func(i int) float64 {
			if len(data) < 2 {
				return 0
			}
			c := data[1+i%(len(data)-1)]
			if c&0x80 != 0 {
				return boxAlphabet[int(c&0x7f)%len(boxAlphabet)]
			}
			return (float64(c) - 64) / 3
		}
		vec := func(j int) []float64 {
			v := make([]float64, dim)
			for k := range v {
				v[k] = coord(j*dim + k)
			}
			return v
		}
		a, b := boxFrom(vec(0), vec(1)), boxFrom(vec(2), vec(3))
		q, v := vec(4), vec(5)
		checkBoxBoundsMatchReference(t, a, b, q, bound)
		checkBounded(t, dim, a, b, q, v, bound)
	})
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

// TestBoxBuilders: the range builder agrees with a per-coordinate min/max
// over the same rows.
func TestBoxBuilders(t *testing.T) {
	p := randPoints(40, 3, 6)
	got := EmptyBox(3)
	BoundingBoxRange(&got, p, 5, 30)
	for k := 0; k < 3; k++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 5; i < 30; i++ {
			lo, hi = math.Min(lo, p.At(i)[k]), math.Max(hi, p.At(i)[k])
		}
		if got.Lo[k] != lo || got.Hi[k] != hi {
			t.Fatalf("dim %d: range [%v,%v], want [%v,%v]", k, got.Lo[k], got.Hi[k], lo, hi)
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
