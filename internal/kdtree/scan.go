package kdtree

import (
	"math"

	"parclust/internal/geometry"
	"parclust/internal/metric"
)

// Every query family has one traversal: k-NN and core distances (knn.go),
// range query and range count (range.go), squared BCCP (bccp.go) and
// Borůvka's nearest-outside (below). What the tree's representation
// changes is confined to the primitives in this file, so a traversal reads
// the same on the float64 and float32 paths and under every metric:
//
//   - query holds the query point in both dtypes, the tombstones and the
//     comparison space. The comparison space is squared Euclidean when
//     q.sq is set (float64 L2 trees; float32 l2, sql2 and angular kernels)
//     and the metric itself otherwise.
//   - The box bounds are exact float64 and in comparison space. The
//     squared ones are written at each call site under q.sq: a bound that
//     dispatched in one method would be too large to inline, and the
//     float64 L2 traversals would pay a call per node.
//   - stop ends the descent at leaves on float64, and at subtrees of at
//     most F32ScanMax positions on float32.
//   - scan and dist are the leaf scan: float32 lane-scans a chunk of the
//     SoA panels, float64 runs the kernel per point the caller keeps.
//   - finish and cmpRadius map between comparison space and the metric.
//
// Float64 always descends to the leaves. Scanning whole subtrees in kd
// order, as float32 does, would change the visit order and with it which
// of several equal distances a k-NN heap or a BCCP keeps; with one-point
// leaves, float64 panels would only add another copy of the points.

// query is one traversal's query point. On the float64 path q32 is nil;
// a float32 traversal sets q32 and scans into buf.
type query struct {
	qc   []float64 // coordinates; box bounds always read these
	q32  []float32 // float32 coordinates, or nil on the float64 path
	tomb []bool    // deleted points by original id; nil when none
	sq   bool      // comparison space is squared Euclidean

	buf [F32ScanMax]float32 // the chunk the last float32 scan prepared
}

// at points q at the tree point at kd position p, in the tree's own
// representation.
func (t *Tree) at(q *query, p int32) {
	q.qc, q.sq = t.Pts.At(int(p)), t.l2
	if f := t.f32; f != nil {
		q.q32, q.sq = f.Row(p), f.op == metric.LaneSq
	}
}

// coords is the float64-path query at a coordinate vector. Coordinate
// queries run on float64 on every tree.
func (t *Tree) coords(qc []float64, tomb []bool) query {
	return query{qc: qc, tomb: tomb, sq: t.l2}
}

// stop reports that a traversal scans n's positions instead of
// descending: at leaves, and on float32 also at subtrees that fit one
// lane-scan chunk.
func (t *Tree) stop(q *query, n *Node) bool {
	return n.IsLeaf() || (q.q32 != nil && n.Size() <= F32ScanMax)
}

// scan prepares the comparison-space distances from q to the positions
// [lo, hi) and returns the end e of the prepared chunk: dist(q, p, lo) is
// valid for lo <= p < e. Float32 lane-scans at most F32ScanMax positions
// into q.buf. Float64 prepares nothing and returns hi; dist runs the
// kernel for each point the caller asks for, so a point it skips
// (tombstoned, or in the query's own component) costs no kernel call.
func (t *Tree) scan(q *query, lo, hi int32) int32 {
	if q.q32 == nil {
		return hi
	}
	return t.f32.scanInto(&q.buf, lo, hi, q.q32)
}

// dist is the comparison-space distance from q to position p of the chunk
// scan prepared from lo. Float32 distances widen to float64 before any
// comparison, so candidate ordering is exact over the rounded values.
func (t *Tree) dist(q *query, p, lo int32) float64 {
	if q.q32 != nil {
		return float64(q.buf[p-lo])
	}
	return t.dist64(q.qc, p)
}

// dead reports that position p is tombstoned for q.
func (t *Tree) dead(q *query, p int32) bool {
	return q.tomb != nil && q.tomb[t.Orig[p]]
}

// ub upper-bounds the comparison-space distance from q to box b.
func (t *Tree) ub(q *query, b geometry.Box) float64 {
	if q.sq {
		return geometry.SqMaxDistBoxes(pointBox(q.qc), b)
	}
	return t.M.BoxesUB(pointBox(q.qc), b)
}

// finish maps a comparison-space distance of q to the tree-metric
// distance.
func (t *Tree) finish(q *query, w float64) float64 {
	switch {
	case q.q32 != nil:
		return t.M.Finish32(w)
	case q.sq:
		return math.Sqrt(w)
	}
	return w
}

// cmpRadius maps a tree-metric radius into q's comparison space, so
// `dist <= r` becomes `cmp <= cmpRadius(q, r)`.
func (t *Tree) cmpRadius(q *query, r float64) float64 {
	switch {
	case q.q32 != nil:
		return t.M.CmpRadius32(r)
	case q.sq:
		return r * r
	}
	return r
}

// Finish maps a comparison-space distance between two tree points, such
// as NearestOutside's W, to the tree-metric distance: finish for a query
// in the tree's own representation.
func (t *Tree) Finish(w float64) float64 {
	if t.f32 != nil {
		return t.M.Finish32(w)
	}
	if t.l2 {
		return math.Sqrt(w)
	}
	return w
}

func pointBox(qc []float64) geometry.Box {
	return geometry.Box{Lo: qc, Hi: qc}
}

// NearestOutside returns the nearest tree point to the one at kd position
// p that lies in a different component (comp holds the per-position
// labels, and node Comp annotations must match them), with W in the
// tree's comparison space; Finish maps it to the metric. Ties follow the
// edge order: weight, then the (U, V) endpoints with U < V. Borůvka's
// query phase calls this once per point per round.
func (t *Tree) NearestOutside(p int32, comp []int32) BCCPResult {
	var q query
	t.at(&q, p)
	best := BCCPResult{U: -1, V: -1, W: math.Inf(1)}
	t.nearestOutside(t.Root, &q, p, comp, &best)
	return best
}

func (t *Tree) nearestOutside(n *Node, q *query, p int32, comp []int32, best *BCCPResult) {
	cp := comp[p]
	if n.Comp >= 0 && n.Comp == cp {
		return // subtree entirely in p's component
	}
	// Prune only once a candidate exists: with no candidate yet, best.W is
	// +Inf and a box at overflowed (+Inf) squared distance must still be
	// descended, or a round could record nothing and never merge.
	if best.U >= 0 {
		var lb float64
		if q.sq {
			lb = geometry.SqDistPointBox(q.qc, n.Box)
		} else {
			lb = t.M.PointBoxLB(q.qc, n.Box)
		}
		if lb >= best.W {
			return
		}
	}
	if t.stop(q, n) {
		for s := n.Lo; s < n.Hi; {
			e := t.scan(q, s, n.Hi)
			for x := s; x < e; x++ {
				if comp[x] == cp {
					continue
				}
				d := t.dist(q, x, s)
				if d > best.W {
					continue
				}
				u, v := p, x
				if u > v {
					u, v = v, u
				}
				// best.U < 0 accepts the first candidate even at d == +Inf
				// (squared-distance overflow on huge finite coordinates).
				if best.U < 0 || d < best.W || u < best.U || (u == best.U && v < best.V) {
					*best = BCCPResult{U: u, V: v, W: d}
				}
			}
			s = e
		}
		return
	}
	left, right := t.LeftOf(n), t.RightOf(n)
	var dl, dr float64
	if q.sq {
		dl, dr = geometry.SqDistPointBox(q.qc, left.Box), geometry.SqDistPointBox(q.qc, right.Box)
	} else {
		dl, dr = t.M.PointBoxLB(q.qc, left.Box), t.M.PointBoxLB(q.qc, right.Box)
	}
	if dl <= dr {
		t.nearestOutside(left, q, p, comp, best)
		t.nearestOutside(right, q, p, comp, best)
	} else {
		t.nearestOutside(right, q, p, comp, best)
		t.nearestOutside(left, q, p, comp, best)
	}
}
