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
	qc := t.Pts.At(int(t.Inv[q]))
	if f := t.f32; f != nil {
		t.rangeQuery32(t.Root, qc, f.Row(t.Inv[q]), f.Kern.CmpRadius(r), &out)
		return out
	}
	return t.RangeQueryLiveAppend(qc, r, nil, out)
}

// RangeCount returns the number of points within tree-metric distance r of
// the point with original id q (including q itself) without materializing
// them. Subtrees whose bounding boxes lie entirely within the ball are
// counted wholesale.
func (t *Tree) RangeCount(q int32, r float64) int {
	qc := t.Pts.At(int(t.Inv[q]))
	if f := t.f32; f != nil {
		return t.rangeCount32(t.Root, qc, f.Row(t.Inv[q]), f.Kern.CmpRadius(r))
	}
	return t.RangeCountLive(qc, r, nil)
}

func (t *Tree) rangeQuery(n *Node, qc []float64, r2 float64, tomb []bool, out *[]int32) {
	if n == nil {
		return
	}
	if geometry.SqDistPointBox(qc, n.Box) > r2 {
		return
	}
	if n.IsLeaf() {
		kern := t.sqKern
		d := t.Pts.Dim
		data := t.Pts.Data
		for p := n.Lo; p < n.Hi; p++ {
			if tomb != nil && tomb[t.Orig[p]] {
				continue
			}
			r := int(p) * d
			if kern(qc, data[r:r+d:r+d]) <= r2 {
				*out = append(*out, t.Orig[p])
			}
		}
		return
	}
	t.rangeQuery(t.LeftOf(n), qc, r2, tomb, out)
	t.rangeQuery(t.RightOf(n), qc, r2, tomb, out)
}

func (t *Tree) rangeCount(n *Node, qc []float64, r2 float64, tomb []bool) int {
	if n == nil {
		return 0
	}
	if geometry.SqDistPointBox(qc, n.Box) > r2 {
		return 0
	}
	if tomb == nil && geometry.SqMaxDistBoxes(pointBox(qc), n.Box) <= r2 {
		return n.Size() // whole subtree inside the ball
	}
	if n.IsLeaf() {
		kern := t.sqKern
		d := t.Pts.Dim
		data := t.Pts.Data
		cnt := 0
		for p := n.Lo; p < n.Hi; p++ {
			if tomb != nil && tomb[t.Orig[p]] {
				continue
			}
			r := int(p) * d
			if kern(qc, data[r:r+d:r+d]) <= r2 {
				cnt++
			}
		}
		return cnt
	}
	return t.rangeCount(t.LeftOf(n), qc, r2, tomb) + t.rangeCount(t.RightOf(n), qc, r2, tomb)
}

func (t *Tree) rangeQueryMetric(n *Node, qc []float64, r float64, tomb []bool, out *[]int32) {
	if n == nil {
		return
	}
	if t.M.PointBoxLB(qc, n.Box) > r {
		return
	}
	if n.IsLeaf() {
		d := t.Pts.Dim
		data := t.Pts.Data
		for p := n.Lo; p < n.Hi; p++ {
			if tomb != nil && tomb[t.Orig[p]] {
				continue
			}
			ro := int(p) * d
			if t.M.Dist(qc, data[ro:ro+d:ro+d]) <= r {
				*out = append(*out, t.Orig[p])
			}
		}
		return
	}
	t.rangeQueryMetric(t.LeftOf(n), qc, r, tomb, out)
	t.rangeQueryMetric(t.RightOf(n), qc, r, tomb, out)
}

func (t *Tree) rangeCountMetric(n *Node, qc []float64, r float64, tomb []bool) int {
	if n == nil {
		return 0
	}
	if t.M.PointBoxLB(qc, n.Box) > r {
		return 0
	}
	if tomb == nil && t.M.BoxesUB(pointBox(qc), n.Box) <= r {
		return n.Size() // whole subtree inside the ball
	}
	if n.IsLeaf() {
		d := t.Pts.Dim
		data := t.Pts.Data
		cnt := 0
		for p := n.Lo; p < n.Hi; p++ {
			if tomb != nil && tomb[t.Orig[p]] {
				continue
			}
			ro := int(p) * d
			if t.M.Dist(qc, data[ro:ro+d:ro+d]) <= r {
				cnt++
			}
		}
		return cnt
	}
	return t.rangeCountMetric(t.LeftOf(n), qc, r, tomb) + t.rangeCountMetric(t.RightOf(n), qc, r, tomb)
}

func pointBox(qc []float64) geometry.Box {
	return geometry.Box{Lo: qc, Hi: qc}
}
