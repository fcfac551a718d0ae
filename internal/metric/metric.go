// Package metric defines the point-space distance kernels the clustering
// pipeline is parameterized over. A Metric supplies the point-to-point
// distance plus the bounding-box distance bounds the k-d tree, WSPD, and
// MST algorithms use for pruning; any implementation whose bounds are
// sound (LB below every realizable pair distance, UB above) plugs into
// every algorithm of the library.
//
// The WSPD-based MST algorithms (EMST-Naive/GFK/MemoGFK/WSPD-Borůvka and
// the HDBSCAN* variants) additionally require the metric to have the
// doubling property, which bounds the number of well-separated pairs. All
// built-in kernels are doubling (SqL2 and Angular qualify as monotone
// transforms of L2, which preserve the minimum spanning tree and the
// separation structure).
//
// A kernel also carries its float32 path: the lane accumulator of its
// comparison space (Lane), the map from a comparison-space value to its
// distance (Finish32) and the map from a radius into comparison space
// (CmpRadius32). The comparison space is squared Euclidean for l2, sql2
// and angular (squaring and the chord-to-angle map are monotone, so
// orderings are kept) and the metric itself for l1 and linf. Spatial
// pruning on that path keeps the exact float64 box bounds, so a float32
// traversal departs from the float64 one only by the float32 rounding of
// point-pair distances, never by unsound pruning.
package metric

import (
	"fmt"
	"math"

	"parclust/internal/geometry"
)

// Metric is a distance kernel over coordinate vectors together with the
// axis-aligned-box bounds used for spatial pruning and the maps of its
// float32 path.
type Metric interface {
	// Name is the canonical kernel name ("l2", "l1", ...).
	Name() string
	// Dist returns the distance between coordinate vectors a and b.
	Dist(a, b []float64) float64
	// PointBoxLB lower-bounds Dist(q, x) over all x in box b.
	PointBoxLB(q []float64, b geometry.Box) float64
	// BoxesLB lower-bounds Dist(x, y) over all x in a, y in b.
	BoxesLB(a, b geometry.Box) float64
	// BoxesUB upper-bounds Dist(x, y) over all x in a, y in b.
	BoxesUB(a, b geometry.Box) float64

	// Lane selects the float32 lane accumulator of the kernel's
	// comparison space.
	Lane() LaneOp
	// Finish32 maps a float32 comparison-space value, widened to float64,
	// to the kernel's distance.
	Finish32(w float64) float64
	// CmpRadius32 maps a radius r into the float32 comparison space, so
	// `Dist <= r` becomes `cmp <= CmpRadius32(r)`.
	CmpRadius32(r float64) float64
}

// L2 is the Euclidean metric, the kernel the source paper states its
// algorithms for.
type L2 struct{}

func (L2) Name() string                { return "l2" }
func (L2) Dist(a, b []float64) float64 { return math.Sqrt(geometry.SqDistVec(a, b)) }
func (L2) PointBoxLB(q []float64, b geometry.Box) float64 {
	return math.Sqrt(geometry.SqDistPointBox(q, b))
}
func (L2) BoxesLB(a, b geometry.Box) float64 { return math.Sqrt(geometry.SqDistBoxes(a, b)) }
func (L2) BoxesUB(a, b geometry.Box) float64 { return math.Sqrt(geometry.SqMaxDistBoxes(a, b)) }
func (L2) Lane() LaneOp                      { return LaneSq }
func (L2) Finish32(w float64) float64        { return math.Sqrt(w) }
func (L2) CmpRadius32(r float64) float64     { return r * r }

// SqL2 is squared Euclidean distance. It is not a metric (the triangle
// inequality fails) but is a strictly monotone transform of L2, so it
// yields the same minimum spanning tree, the same k-NN sets, and the same
// DBSCAN* clusterings at radius eps² — with all reported weights squared.
type SqL2 struct{}

func (SqL2) Name() string                { return "sql2" }
func (SqL2) Dist(a, b []float64) float64 { return geometry.SqDistVec(a, b) }
func (SqL2) PointBoxLB(q []float64, b geometry.Box) float64 {
	return geometry.SqDistPointBox(q, b)
}
func (SqL2) BoxesLB(a, b geometry.Box) float64 { return geometry.SqDistBoxes(a, b) }
func (SqL2) BoxesUB(a, b geometry.Box) float64 { return geometry.SqMaxDistBoxes(a, b) }
func (SqL2) Lane() LaneOp                      { return LaneSq }
func (SqL2) Finish32(w float64) float64        { return w }
func (SqL2) CmpRadius32(r float64) float64     { return r }

// L1 is the Manhattan / taxicab metric.
type L1 struct{}

func (L1) Name() string                  { return "l1" }
func (L1) Lane() LaneOp                  { return LaneL1 }
func (L1) Finish32(w float64) float64    { return w }
func (L1) CmpRadius32(r float64) float64 { return r }

func (L1) Dist(a, b []float64) float64 {
	var s float64
	for k := range a {
		s += math.Abs(a[k] - b[k])
	}
	return s
}

func (L1) PointBoxLB(q []float64, b geometry.Box) float64 {
	var s float64
	for k, v := range q {
		switch {
		case v < b.Lo[k]:
			s += b.Lo[k] - v
		case v > b.Hi[k]:
			s += v - b.Hi[k]
		}
	}
	return s
}

func (L1) BoxesLB(a, b geometry.Box) float64 {
	var s float64
	for k := range a.Lo {
		s += axisGap(a, b, k)
	}
	return s
}

func (L1) BoxesUB(a, b geometry.Box) float64 {
	var s float64
	for k := range a.Lo {
		s += axisSpan(a, b, k)
	}
	return s
}

// LInf is the Chebyshev / maximum metric.
type LInf struct{}

func (LInf) Name() string                  { return "linf" }
func (LInf) Lane() LaneOp                  { return LaneLInf }
func (LInf) Finish32(w float64) float64    { return w }
func (LInf) CmpRadius32(r float64) float64 { return r }

func (LInf) Dist(a, b []float64) float64 {
	var m float64
	for k := range a {
		if d := math.Abs(a[k] - b[k]); d > m {
			m = d
		}
	}
	return m
}

func (LInf) PointBoxLB(q []float64, b geometry.Box) float64 {
	var m float64
	for k, v := range q {
		var d float64
		switch {
		case v < b.Lo[k]:
			d = b.Lo[k] - v
		case v > b.Hi[k]:
			d = v - b.Hi[k]
		}
		if d > m {
			m = d
		}
	}
	return m
}

func (LInf) BoxesLB(a, b geometry.Box) float64 {
	var m float64
	for k := range a.Lo {
		if d := axisGap(a, b, k); d > m {
			m = d
		}
	}
	return m
}

func (LInf) BoxesUB(a, b geometry.Box) float64 {
	var m float64
	for k := range a.Lo {
		if d := axisSpan(a, b, k); d > m {
			m = d
		}
	}
	return m
}

// Angular is the angle (in radians) between unit vectors. Input points
// MUST be unit-normalized (the public API normalizes a copy and rejects
// zero vectors); on the unit sphere the angle is the strictly monotone
// transform 2·asin(chord/2) of the L2 chord length, so the box bounds are
// the transformed L2 box bounds and the MST matches the cosine-distance
// MST exactly.
type Angular struct{}

func (Angular) Name() string { return "angular" }

func (Angular) Dist(a, b []float64) float64 {
	return angleFromSqChord(geometry.SqDistVec(a, b))
}

func (Angular) PointBoxLB(q []float64, b geometry.Box) float64 {
	return angleFromSqChord(geometry.SqDistPointBox(q, b))
}

func (Angular) BoxesLB(a, b geometry.Box) float64 {
	return angleFromSqChord(geometry.SqDistBoxes(a, b))
}

func (Angular) BoxesUB(a, b geometry.Box) float64 {
	return angleFromSqChord(geometry.SqMaxDistBoxes(a, b))
}

func (Angular) Lane() LaneOp { return LaneSq }

func (Angular) Finish32(w float64) float64 { return angleFromSqChord(w) }

// CmpRadius32 inverts the angle-to-chord map: the squared chord of angle
// r, clamped to the sphere's diameter.
func (Angular) CmpRadius32(r float64) float64 {
	s := math.Sin(math.Min(r, math.Pi) / 2)
	return 4 * s * s
}

// angleFromSqChord maps a squared chord length between unit vectors to the
// subtended angle, clamping against rounding past the sphere's diameter.
func angleFromSqChord(sq float64) float64 {
	h := math.Sqrt(sq) / 2
	if h > 1 {
		h = 1
	}
	return 2 * math.Asin(h)
}

// axisGap is the separation of the two boxes along axis k (0 when their
// projections overlap).
func axisGap(a, b geometry.Box, k int) float64 {
	switch {
	case b.Lo[k] > a.Hi[k]:
		return b.Lo[k] - a.Hi[k]
	case a.Lo[k] > b.Hi[k]:
		return a.Lo[k] - b.Hi[k]
	}
	return 0
}

// axisSpan is the farthest separation of any two projections of the boxes
// along axis k.
func axisSpan(a, b geometry.Box, k int) float64 {
	d := math.Max(a.Hi[k]-b.Lo[k], b.Hi[k]-a.Lo[k])
	if d < 0 {
		return 0
	}
	return d
}

// All returns one instance of every built-in kernel, in a fixed order.
func All() []Metric {
	return []Metric{L2{}, SqL2{}, L1{}, LInf{}, Angular{}}
}

// Parse resolves a kernel by name, accepting the common aliases.
func Parse(name string) (Metric, error) {
	switch name {
	case "l2", "euclidean":
		return L2{}, nil
	case "sql2", "sqeuclidean":
		return SqL2{}, nil
	case "l1", "manhattan":
		return L1{}, nil
	case "linf", "chebyshev":
		return LInf{}, nil
	case "angular", "cosine":
		return Angular{}, nil
	}
	return nil, fmt.Errorf("metric: unknown kernel %q (want l2|sql2|l1|linf|angular)", name)
}

// IsL2 reports whether m is the plain Euclidean kernel, which the k-d tree
// and BCCP use to select their monomorphized squared-distance fast paths.
func IsL2(m Metric) bool {
	_, ok := m.(L2)
	return ok
}

// NormalizeRows returns a unit-normalized copy of pts for the Angular
// kernel, or an error naming the first zero-length row.
func NormalizeRows(pts geometry.Points) (geometry.Points, error) {
	out := geometry.NewPoints(pts.N, pts.Dim)
	copy(out.Data, pts.Data)
	for i := 0; i < out.N; i++ {
		row := out.At(i)
		// Scale by the largest magnitude before squaring (hypot-style) so
		// rows with extreme coordinates neither overflow the squared norm
		// to +Inf (silently collapsing the row to the zero vector) nor
		// underflow it to 0 (falsely rejecting a valid direction).
		var maxAbs float64
		for _, v := range row {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs == 0 {
			return geometry.Points{}, fmt.Errorf("metric: point %d is the zero vector; the angular kernel requires nonzero points", i)
		}
		var s float64
		for _, v := range row {
			u := v / maxAbs
			s += u * u
		}
		inv := 1 / math.Sqrt(s)
		for k := range row {
			row[k] = row[k] / maxAbs * inv
		}
	}
	return out, nil
}
