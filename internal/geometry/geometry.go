// Package geometry provides d-dimensional point sets, axis-aligned bounding
// boxes, and the distance computations used throughout the library.
//
// Points are stored in a single flat []float64 buffer (row-major, n x d) for
// cache friendliness; algorithms address points by integer index.
package geometry

import (
	"fmt"
	"math"
)

// Points is a set of n points in d dimensions backed by a flat buffer.
// Point i occupies Data[i*Dim : (i+1)*Dim].
type Points struct {
	Data []float64
	N    int
	Dim  int
}

// NewPoints allocates an n x dim point set with zeroed coordinates.
func NewPoints(n, dim int) Points {
	if n < 0 || dim <= 0 {
		panic(fmt.Sprintf("geometry: invalid point set size n=%d dim=%d", n, dim))
	}
	return Points{Data: make([]float64, n*dim), N: n, Dim: dim}
}

// FromSlices builds a Points from a slice of coordinate slices. All rows must
// share the same dimensionality.
func FromSlices(rows [][]float64) Points {
	if len(rows) == 0 {
		return Points{N: 0, Dim: 1}
	}
	d := len(rows[0])
	p := NewPoints(len(rows), d)
	for i, r := range rows {
		if len(r) != d {
			panic(fmt.Sprintf("geometry: row %d has dim %d, want %d", i, len(r), d))
		}
		copy(p.Data[i*d:(i+1)*d], r)
	}
	return p
}

// At returns the coordinates of point i as a subslice of the backing buffer.
// The caller must not modify the result unless it owns the point set.
func (p Points) At(i int) []float64 {
	return p.Data[i*p.Dim : (i+1)*p.Dim : (i+1)*p.Dim]
}

// Rows copies the point set into a slice-of-slices representation.
func (p Points) Rows() [][]float64 {
	out := make([][]float64, p.N)
	for i := range out {
		out[i] = append([]float64(nil), p.At(i)...)
	}
	return out
}

// SqDist returns the squared Euclidean distance between points i and j.
// Dimensions 2 and 3 take specialized paths via SqDistVec; hot loops that
// want to hoist the dimension dispatch entirely use SqDistRowKernel instead.
func (p Points) SqDist(i, j int) float64 {
	return SqDistVec(p.Data[i*p.Dim:(i+1)*p.Dim], p.Data[j*p.Dim:(j+1)*p.Dim])
}

// Dist returns the Euclidean distance between points i and j.
func (p Points) Dist(i, j int) float64 { return math.Sqrt(p.SqDist(i, j)) }

// SqDistTo returns the squared Euclidean distance between point i and the raw
// coordinate vector q (len(q) must equal Dim).
func (p Points) SqDistTo(i int, q []float64) float64 {
	return SqDistVec(p.Data[i*p.Dim:(i+1)*p.Dim], q)
}

// SqDistVec returns the squared Euclidean distance between two coordinate
// vectors of equal length.
func SqDistVec(a, b []float64) float64 {
	switch len(a) {
	case 2:
		return sqDist2(a, b)
	case 3:
		return sqDist3(a, b)
	}
	return sqDistGeneric(a, b)
}

// SqDistRowKernel returns the squared-Euclidean distance from a coordinate
// vector to row p of pts, monomorphized for pts.Dim: dimensions 2 and 3 get
// straight-line bodies with no loop and no per-call dimension branch.
// Traversals select the kernel once and call it in their inner loops, so
// the dispatch cost is paid per traversal, not per point pair.
func SqDistRowKernel(pts Points) func(q []float64, p int32) float64 {
	data, d := pts.Data, pts.Dim
	switch d {
	case 2:
		return func(q []float64, p int32) float64 {
			r := int(p) * 2
			return sqDist2(q, data[r:r+2:r+2])
		}
	case 3:
		return func(q []float64, p int32) float64 {
			r := int(p) * 3
			return sqDist3(q, data[r:r+3:r+3])
		}
	}
	return func(q []float64, p int32) float64 {
		r := int(p) * d
		return sqDistGeneric(q, data[r:r+d:r+d])
	}
}

func sqDist2(a, b []float64) float64 {
	d0 := a[0] - b[0]
	d1 := a[1] - b[1]
	return d0*d0 + d1*d1
}

func sqDist3(a, b []float64) float64 {
	d0 := a[0] - b[0]
	d1 := a[1] - b[1]
	d2 := a[2] - b[2]
	return d0*d0 + d1*d1 + d2*d2
}

func sqDistGeneric(a, b []float64) float64 {
	b = b[:len(a)]
	var s float64
	for k := range a {
		d := a[k] - b[k]
		s += d * d
	}
	return s
}

// SqDistVecBounded is SqDistVec with an early exit once the partial sum
// reaches bound. Below bound the result is SqDistVec's, bit for bit; at or
// above it the scan may have stopped early, and it certifies only that
// SqDistVec(a, b) >= bound: the partial sums of non-negative terms never
// decrease under round-to-nearest, with or without fused multiply-adds.
// Dimensions 2 and 3 have nothing to skip and take SqDistVec's kernels.
func SqDistVecBounded(a, b []float64, bound float64) float64 {
	if len(a) <= 3 {
		return SqDistVec(a, b)
	}
	b = b[:len(a)]
	var s float64
	for k := range a {
		d := a[k] - b[k]
		s += d * d
		if s >= bound {
			return s
		}
	}
	return s
}

// Box is an axis-aligned bounding box.
type Box struct {
	Lo, Hi []float64
}

// EmptyBox returns a box with inverted infinite bounds, ready for Extend.
func EmptyBox(dim int) Box {
	b := Box{Lo: make([]float64, dim), Hi: make([]float64, dim)}
	for k := 0; k < dim; k++ {
		b.Lo[k] = math.Inf(1)
		b.Hi[k] = math.Inf(-1)
	}
	return b
}

// Extend grows the box to contain coordinate vector q.
func (b *Box) Extend(q []float64) {
	for k, v := range q {
		if v < b.Lo[k] {
			b.Lo[k] = v
		}
		if v > b.Hi[k] {
			b.Hi[k] = v
		}
	}
}

// ExtendBox grows the box to contain another box.
func (b *Box) ExtendBox(o Box) {
	for k := range b.Lo {
		if o.Lo[k] < b.Lo[k] {
			b.Lo[k] = o.Lo[k]
		}
		if o.Hi[k] > b.Hi[k] {
			b.Hi[k] = o.Hi[k]
		}
	}
}

// BoundingBox computes the bounding box of points idx (indices into p).
func BoundingBox(p Points, idx []int32) Box {
	b := EmptyBox(p.Dim)
	for _, i := range idx {
		b.Extend(p.At(int(i)))
	}
	return b
}

// BoundingBoxRange computes the bounding box of the contiguous rows
// [lo, hi) of p into b, whose Lo/Hi must already have length p.Dim. The
// scan runs straight over the backing buffer, allocating nothing.
func BoundingBoxRange(b *Box, p Points, lo, hi int) {
	d := p.Dim
	for k := 0; k < d; k++ {
		b.Lo[k] = math.Inf(1)
		b.Hi[k] = math.Inf(-1)
	}
	rows := p.Data[lo*d : hi*d]
	for r := 0; r < len(rows); r += d {
		b.Extend(rows[r : r+d : r+d])
	}
}

// Center writes the box center into out and returns it.
func (b Box) Center(out []float64) []float64 {
	for k := range b.Lo {
		out[k] = (b.Lo[k] + b.Hi[k]) / 2
	}
	return out
}

// Radius returns the radius of the bounding sphere circumscribing the box
// (half the box diagonal).
func (b Box) Radius() float64 {
	var s float64
	for k := range b.Lo {
		d := (b.Hi[k] - b.Lo[k]) / 2
		s += d * d
	}
	return math.Sqrt(s)
}

// WidestDim returns the dimension with the largest extent and that extent.
func (b Box) WidestDim() (int, float64) {
	best, bestW := 0, -1.0
	for k := range b.Lo {
		if w := b.Hi[k] - b.Lo[k]; w > bestW {
			best, bestW = k, w
		}
	}
	return best, bestW
}

// SqDistBoxes returns the squared minimum distance between two boxes
// (0 if they intersect).
func SqDistBoxes(a, b Box) float64 {
	n := len(a.Lo)
	al, ah, bl, bh := a.Lo[:n], a.Hi[:n], b.Lo[:n], b.Hi[:n]
	var s float64
	for k := range al {
		d := pos(bl[k]-ah[k]) + pos(al[k]-bh[k])
		s += d * d
	}
	return s
}

// SqDistBoxesBounded is SqDistBoxes with an early exit: the scan stops as
// soon as the partial sum reaches bound. The result is exact when it is
// below bound; a result >= bound only certifies that the true squared box
// distance is >= bound, so callers may use it solely for threshold tests
// against bound. In high dimension most candidate pairs fail their pruning
// threshold within the first few coordinates, making this much cheaper
// than the full scan on traversal-heavy workloads.
func SqDistBoxesBounded(a, b Box, bound float64) float64 {
	n := len(a.Lo)
	al, ah, bl, bh := a.Lo[:n], a.Hi[:n], b.Lo[:n], b.Hi[:n]
	var s float64
	for k := range al {
		d := pos(bl[k]-ah[k]) + pos(al[k]-bh[k])
		s += d * d
		if s >= bound {
			return s
		}
	}
	return s
}

// pos returns x when it is positive and +0 otherwise, without a branch: an
// arithmetic shift spreads the sign bit into a mask that clears every bit
// of a negative x. The box bounds add pos(lo-v) + pos(v-hi) per dimension:
// with finite coordinates and lo <= hi at most one term is positive, and
// x + 0 == x, so the gap, the partial sums and the early exits at any
// positive bound are those of the comparison-per-dimension formula, bit
// for bit, at a cost the data cannot mispredict. A difference that
// overflows keeps that formula's value too (+Inf stays, -Inf becomes 0).
func pos(x float64) float64 {
	b := math.Float64bits(x)
	return math.Float64frombits(b &^ uint64(int64(b)>>63))
}

// SqMaxDistBoxes returns the squared maximum distance between any two points
// of the two boxes.
func SqMaxDistBoxes(a, b Box) float64 {
	var s float64
	for k := range a.Lo {
		d := math.Max(a.Hi[k]-b.Lo[k], b.Hi[k]-a.Lo[k])
		if d < 0 {
			d = 0
		}
		s += d * d
	}
	return s
}

// SqMaxDistBoxesBounded is SqMaxDistBoxes with the same early-exit
// contract as SqDistBoxesBounded: exact below bound, and >= bound only
// certifies the true squared max distance is >= bound.
func SqMaxDistBoxesBounded(a, b Box, bound float64) float64 {
	var s float64
	for k := range a.Lo {
		d := math.Max(a.Hi[k]-b.Lo[k], b.Hi[k]-a.Lo[k])
		if d < 0 {
			d = 0
		}
		s += d * d
		if s >= bound {
			return s
		}
	}
	return s
}

// SqDistPointBox returns the squared distance from coordinate vector q to box b.
func SqDistPointBox(q []float64, b Box) float64 {
	var s float64
	for k, v := range q {
		// pos(b.Lo[k]-v) + pos(v-b.Hi[k]), spelled out to keep the
		// function within the inlining budget: the k-NN traversal calls
		// it twice per node, and as a call it made 3D k-NN queries slower
		// than the comparison-per-dimension loop it replaces.
		x, y := math.Float64bits(b.Lo[k]-v), math.Float64bits(v-b.Hi[k])
		d := math.Float64frombits(x&^uint64(int64(x)>>63)) + math.Float64frombits(y&^uint64(int64(y)>>63))
		s += d * d
	}
	return s
}

// SqDistPointBoxBounded is SqDistPointBox with SqDistBoxesBounded's early
// exit: exact below bound, and a result >= bound only certifies that the
// true squared distance is >= bound.
func SqDistPointBoxBounded(q []float64, b Box, bound float64) float64 {
	lo, hi := b.Lo[:len(q)], b.Hi[:len(q)]
	var s float64
	for k, v := range q {
		d := pos(lo[k]-v) + pos(v-hi[k])
		s += d * d
		if s >= bound {
			return s
		}
	}
	return s
}
