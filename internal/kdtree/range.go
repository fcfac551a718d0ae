package kdtree

import "parclust/internal/geometry"

// RangeQuery returns the original ids of all points within tree-metric
// distance r of the point with original id q (including q itself), in no
// particular order.
func (t *Tree) RangeQuery(q int32, r float64) []int32 {
	return t.RangeQueryAppend(q, r, nil)
}

// RangeQueryAppend is RangeQuery appending to out (which may be nil or a
// reused buffer), so steady-state query streams allocate nothing once the
// buffer has grown.
func (t *Tree) RangeQueryAppend(q int32, r float64, out []int32) []int32 {
	var qq query
	t.at(&qq, t.Inv[q])
	t.rangeQuery(t.Root, &qq, t.cmpRadius(&qq, r), &out)
	return out
}

// RangeCount returns the number of points within tree-metric distance r of
// the point with original id q (including q itself) without materializing
// them. Subtrees whose bounding boxes lie entirely within the ball are
// counted wholesale.
func (t *Tree) RangeCount(q int32, r float64) int {
	var qq query
	t.at(&qq, t.Inv[q])
	return t.rangeCount(t.Root, &qq, t.cmpRadius(&qq, r))
}

// rangeQuery appends the original ids of the live points within
// comparison-space radius cr of q.
func (t *Tree) rangeQuery(n *Node, q *query, cr float64, out *[]int32) {
	if n == nil {
		return
	}
	var lb float64
	if q.sq {
		lb = geometry.SqDistPointBox(q.qc, n.Box)
	} else {
		lb = t.M.PointBoxLB(q.qc, n.Box)
	}
	if lb > cr {
		return
	}
	if t.stop(q, n) {
		for s := n.Lo; s < n.Hi; {
			e := t.scan(q, s, n.Hi)
			for p := s; p < e; p++ {
				if !t.dead(q, p) && t.dist(q, p, s) <= cr {
					*out = append(*out, t.Orig[p])
				}
			}
			s = e
		}
		return
	}
	t.rangeQuery(t.LeftOf(n), q, cr, out)
	t.rangeQuery(t.RightOf(n), q, cr, out)
}

// rangeCount counts the live points within comparison-space radius cr of
// q. The wholesale-inside test uses the exact float64 upper bound, and it
// runs only without tombstones, because then a node's Size() is its live
// population. On float32 the per-point predicates compare float32-rounded
// distances, so a point on the ball's boundary at float32 resolution can
// count differently than on float64 (the documented precision contract).
func (t *Tree) rangeCount(n *Node, q *query, cr float64) int {
	if n == nil {
		return 0
	}
	var lb float64
	if q.sq {
		lb = geometry.SqDistPointBox(q.qc, n.Box)
	} else {
		lb = t.M.PointBoxLB(q.qc, n.Box)
	}
	if lb > cr {
		return 0
	}
	if q.tomb == nil && t.ub(q, n.Box) <= cr {
		return n.Size() // whole subtree inside the ball
	}
	if t.stop(q, n) {
		cnt := 0
		for s := n.Lo; s < n.Hi; {
			e := t.scan(q, s, n.Hi)
			for p := s; p < e; p++ {
				if !t.dead(q, p) && t.dist(q, p, s) <= cr {
					cnt++
				}
			}
			s = e
		}
		return cnt
	}
	return t.rangeCount(t.LeftOf(n), q, cr) + t.rangeCount(t.RightOf(n), q, cr)
}
