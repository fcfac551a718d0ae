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
	var s float64
	for k := range a {
		d := a[k] - b[k]
		s += d * d
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

// SqDistBoxesBounded is SqDistBoxes with an early exit: the scan stops as
// soon as the partial sum reaches bound. The result is exact when it is
// below bound; a result >= bound only certifies that the true squared box
// distance is >= bound, so callers may use it solely for threshold tests
// against bound. In high dimension most candidate pairs fail their pruning
// threshold within the first few coordinates, making this much cheaper
// than the full scan on traversal-heavy workloads.
func SqDistBoxesBounded(a, b Box, bound float64) float64 {
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
