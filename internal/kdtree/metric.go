package kdtree

import (
	"math"

	"parclust/internal/geometry"
	"parclust/internal/metric"
)

// Metric abstracts the edge-weight function so the same MST machinery runs
// (generalized) EMST and mutual-reachability HDBSCAN*. NodeLB/NodeUB bound
// the metric over all point pairs drawn from two tree nodes; NodeLB must be
// monotone non-decreasing under descent to children (box bounds are).
//
// Point indices are kd-order positions of the tree the metric is used
// with, so instances must be built over the tree's reordered point set
// (Tree.Pts) and kd-order core distances (Tree.CoreDist) — use the
// NewEuclidean/NewPointDist/NewMutualReachability constructors.
type Metric interface {
	// Dist is the metric distance between the points at kd-order
	// positions i and j.
	Dist(i, j int32) float64
	// NodeLB lower-bounds Dist(p, q) for all p in a, q in b.
	NodeLB(a, b *Node) float64
	// NodeUB upper-bounds Dist(p, q) for all p in a, q in b.
	NodeUB(a, b *Node) float64
}

// Euclidean is the plain Euclidean metric over a point set. BCCP detects it
// on an L2 tree and runs the squared-distance traversal of BCCPSq.
type Euclidean struct{ Pts geometry.Points }

// Dist returns the Euclidean distance between points i and j.
func (m Euclidean) Dist(i, j int32) float64 { return m.Pts.Dist(int(i), int(j)) }

// NodeLB returns the bounding-box distance between a and b.
func (m Euclidean) NodeLB(a, b *Node) float64 { return BoxDist(a, b) }

// NodeUB returns the maximum bounding-box distance between a and b.
func (m Euclidean) NodeUB(a, b *Node) float64 { return BoxMaxDist(a, b) }

// PointDist adapts a point-space metric kernel to the edge-weight
// interface, generalizing the EMST algorithms beyond L2.
type PointDist struct {
	Pts geometry.Points
	M   metric.Metric
}

// Dist returns the kernel distance between points i and j.
func (m PointDist) Dist(i, j int32) float64 {
	return m.M.Dist(m.Pts.At(int(i)), m.Pts.At(int(j)))
}

// NodeLB returns the kernel's box lower bound between a and b.
func (m PointDist) NodeLB(a, b *Node) float64 { return m.M.BoxesLB(a.Box, b.Box) }

// NodeUB returns the kernel's box upper bound between a and b.
func (m PointDist) NodeUB(a, b *Node) float64 { return m.M.BoxesUB(a.Box, b.Box) }

// MutualReachability is the HDBSCAN* mutual reachability metric
// d_m(p,q) = max{cd(p), cd(q), d(p,q)} (Section 2.1), with the base
// distance d taken under kernel M (nil means Euclidean, the paper's
// setting). Node bounds combine the kernel's box bounds with the
// CDMin/CDMax annotations (AnnotateCoreDists must have been called on the
// tree, with core distances computed under the same kernel).
type MutualReachability struct {
	Pts geometry.Points
	CD  []float64
	M   metric.Metric
}

// Dist returns the mutual reachability distance between points i and j.
// On the Euclidean path the base distance is compared in squared space
// first, so the sqrt is skipped whenever a core distance dominates.
func (m MutualReachability) Dist(i, j int32) float64 {
	c := m.CD[i]
	if m.CD[j] > c {
		c = m.CD[j]
	}
	if m.M == nil {
		sq := m.Pts.SqDist(int(i), int(j))
		if sq <= c*c {
			return c
		}
		if d := math.Sqrt(sq); d > c {
			return d
		}
		return c
	}
	if d := m.M.Dist(m.Pts.At(int(i)), m.Pts.At(int(j))); d > c {
		return d
	}
	return c
}

// NodeLB lower-bounds the mutual reachability distance between nodes.
func (m MutualReachability) NodeLB(a, b *Node) float64 {
	c := a.CDMin
	if b.CDMin > c {
		c = b.CDMin
	}
	if m.M == nil {
		sq := geometry.SqDistBoxes(a.Box, b.Box)
		if sq <= c*c {
			return c
		}
		if d := math.Sqrt(sq); d > c {
			return d
		}
		return c
	}
	if d := m.M.BoxesLB(a.Box, b.Box); d > c {
		return d
	}
	return c
}

// NodeUB upper-bounds the mutual reachability distance between nodes.
func (m MutualReachability) NodeUB(a, b *Node) float64 {
	c := a.CDMax
	if b.CDMax > c {
		c = b.CDMax
	}
	if m.M == nil {
		sq := geometry.SqMaxDistBoxes(a.Box, b.Box)
		if sq <= c*c {
			return c
		}
		if d := math.Sqrt(sq); d > c {
			return d
		}
		return c
	}
	if d := m.M.BoxesUB(a.Box, b.Box); d > c {
		return d
	}
	return c
}

// NewEuclidean returns the Euclidean edge metric over t's kd-ordered
// points.
func NewEuclidean(t *Tree) Euclidean { return Euclidean{Pts: t.Pts} }

// NewPointDist adapts t's metric kernel to the edge-weight interface over
// the kd-ordered points.
func NewPointDist(t *Tree) PointDist { return PointDist{Pts: t.Pts, M: t.M} }

// NewMutualReachability returns the mutual reachability edge metric over
// t's kd-ordered points and kd-order core distances. AnnotateCoreDists
// must have been called; the base kernel is t's metric (nil means the
// Euclidean fast paths).
func NewMutualReachability(t *Tree) MutualReachability {
	m := MutualReachability{Pts: t.Pts, CD: t.CoreDist}
	if !t.l2 {
		m.M = t.M
	}
	return m
}
