package kdtree

import (
	"math"

	"parclust/internal/abort"
	"parclust/internal/geometry"
	"parclust/internal/parallel"
)

// Neighbor is a k-NN result entry. Idx is an original input id.
type Neighbor struct {
	Idx  int32
	Dist float64
}

// knnHeap is a bounded max-heap of size k over squared distances, used so
// the worst current candidate can be evicted in O(log k). Stored indices
// are kd-order positions; callers map them to original ids on extraction.
type knnHeap struct {
	idx []int32
	sq  []float64
	k   int
}

// reset prepares the heap for a query of size k, reusing its arrays.
func (h *knnHeap) reset(k int) {
	if cap(h.idx) < k {
		h.idx = make([]int32, 0, k)
		h.sq = make([]float64, 0, k)
	}
	h.idx, h.sq, h.k = h.idx[:0], h.sq[:0], k
}

func (h *knnHeap) worst() float64 {
	if len(h.sq) < h.k {
		return math.Inf(1)
	}
	return h.sq[0]
}

func (h *knnHeap) push(i int32, sq float64) {
	if len(h.sq) < h.k {
		h.idx = append(h.idx, i)
		h.sq = append(h.sq, sq)
		// sift up
		c := len(h.sq) - 1
		for c > 0 {
			p := (c - 1) / 2
			if h.sq[p] >= h.sq[c] {
				break
			}
			h.sq[p], h.sq[c] = h.sq[c], h.sq[p]
			h.idx[p], h.idx[c] = h.idx[c], h.idx[p]
			c = p
		}
		return
	}
	if sq >= h.sq[0] {
		return
	}
	h.sq[0], h.idx[0] = sq, i
	// sift down
	p := 0
	for {
		c := 2*p + 1
		if c >= len(h.sq) {
			break
		}
		if c+1 < len(h.sq) && h.sq[c+1] > h.sq[c] {
			c++
		}
		if h.sq[p] >= h.sq[c] {
			break
		}
		h.sq[p], h.sq[c] = h.sq[c], h.sq[p]
		h.idx[p], h.idx[c] = h.idx[c], h.idx[p]
		p = c
	}
}

// popAllInto heap-extracts into sorted order (descending pops) appending to
// out, mapping each stored key from q's comparison space to the tree metric
// and each stored position to its original id.
func (h *knnHeap) popAllInto(out []Neighbor, t *Tree, q *query) []Neighbor {
	start := len(out)
	out = append(out, make([]Neighbor, len(h.sq))...)
	for i := len(out) - 1; i >= start; i-- {
		out[i] = Neighbor{Idx: t.Orig[h.idx[0]], Dist: t.finish(q, h.sq[0])}
		last := len(h.sq) - 1
		h.sq[0], h.idx[0] = h.sq[last], h.idx[last]
		h.sq, h.idx = h.sq[:last], h.idx[:last]
		// sift down
		p := 0
		for {
			c := 2*p + 1
			if c >= len(h.sq) {
				break
			}
			if c+1 < len(h.sq) && h.sq[c+1] > h.sq[c] {
				c++
			}
			if h.sq[p] >= h.sq[c] {
				break
			}
			h.sq[p], h.sq[c] = h.sq[c], h.sq[p]
			h.idx[p], h.idx[c] = h.idx[c], h.idx[p]
			p = c
		}
	}
	return out
}

// KNNWorkspace carries the reusable buffers of a k-NN query stream. A
// workspace serves one goroutine; steady-state KNNInto calls through it
// perform zero heap allocations.
type KNNWorkspace struct {
	h   knnHeap
	out []Neighbor
}

// KNN returns the k nearest neighbors of the point with original id q,
// sorted by increasing tree-metric distance. Equal distances come in a
// deterministic but unspecified order (the heap breaks no ties), so q itself
// is included unless more than k points lie at distance 0 from it.
func (t *Tree) KNN(q int32, k int) []Neighbor {
	var ws KNNWorkspace
	return t.KNNInto(q, k, &ws)
}

// KNNInto is KNN reusing the workspace's buffers; the returned slice is
// valid until the next call with the same workspace.
func (t *Tree) KNNInto(q int32, k int, ws *KNNWorkspace) []Neighbor {
	var qq query
	t.at(&qq, t.Inv[q])
	return t.knnInto(&qq, k, ws)
}

func (t *Tree) knnInto(q *query, k int, ws *KNNWorkspace) []Neighbor {
	ws.h.reset(k)
	ws.out = ws.out[:0]
	t.knn(t.Root, q, &ws.h)
	ws.out = ws.h.popAllInto(ws.out, t, q)
	return ws.out
}

// knn is the k-NN traversal: heap keys are comparison-space distances,
// nearer children are descended first, and a child is pruned once its box
// bound cannot beat the k-th candidate.
func (t *Tree) knn(n *Node, q *query, h *knnHeap) {
	if n == nil {
		return
	}
	if t.stop(q, n) {
		for s := n.Lo; s < n.Hi; {
			e := t.scan(q, s, n.Hi)
			for p := s; p < e; p++ {
				if !t.dead(q, p) {
					h.push(p, t.dist(q, p, s))
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
	first, second := left, right
	df, ds := dl, dr
	if dr < dl {
		first, second = right, left
		df, ds = dr, dl
	}
	if df < h.worst() {
		t.knn(first, q, h)
	}
	if ds < h.worst() {
		t.knn(second, q, h)
	}
}

// CoreDistances computes, in parallel, the core distance of every point:
// the tree-metric distance to its minPts-nearest neighbor, counting the
// point itself (Section 2.1). The result is in original id order; minPts=1
// gives all zeros. Query points stream through the kd-ordered rows, and
// each worker chunk reuses one heap.
func (t *Tree) CoreDistances(minPts int) []float64 {
	return t.CoreDistancesCancel(minPts, nil)
}

// CoreDistancesCancel is CoreDistances with a cooperative cancellation
// flag, polled once per 64-point worker chunk; on abort it unwinds with
// abort.Signal{} (see BuildMetricCancel). af may be nil.
func (t *Tree) CoreDistancesCancel(minPts int, af *abort.Flag) []float64 {
	cd := make([]float64, t.Pts.N)
	if minPts <= 1 {
		return cd
	}
	parallel.ForRange(t.Pts.N, 64, func(lo, hi int) {
		af.Check()
		var h knnHeap
		var q query
		for p := lo; p < hi; p++ {
			h.reset(minPts)
			t.at(&q, int32(p))
			t.knn(t.Root, &q, &h)
			if len(h.sq) > 0 { // heap root is the k-th (or farthest available) NN
				cd[t.Orig[p]] = t.finish(&q, h.sq[0])
			}
		}
	})
	return cd
}
