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
// out, mapping each stored key through finish (identity for metric
// traversals, sqrt for the squared-distance L2 traversal) and each stored
// position through orig.
func (h *knnHeap) popAllInto(out []Neighbor, orig []int32, finish func(float64) float64) []Neighbor {
	start := len(out)
	out = append(out, make([]Neighbor, len(h.sq))...)
	for i := len(out) - 1; i >= start; i-- {
		out[i] = Neighbor{Idx: orig[h.idx[0]], Dist: finish(h.sq[0])}
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

func identity(d float64) float64 { return d }

// KNNWorkspace carries the reusable buffers of a k-NN query stream. A
// workspace serves one goroutine; steady-state KNNInto calls through it
// perform zero heap allocations.
type KNNWorkspace struct {
	h   knnHeap
	out []Neighbor
}

// KNN returns the k nearest neighbors of the point with original id q
// (including q itself), sorted by increasing tree-metric distance.
func (t *Tree) KNN(q int32, k int) []Neighbor {
	var ws KNNWorkspace
	return t.KNNInto(q, k, &ws)
}

// KNNInto is KNN reusing the workspace's buffers; the returned slice is
// valid until the next call with the same workspace.
func (t *Tree) KNNInto(q int32, k int, ws *KNNWorkspace) []Neighbor {
	qc := t.Pts.At(int(t.Inv[q]))
	if f := t.f32; f != nil {
		ws.h.reset(k)
		ws.out = ws.out[:0]
		t.knn32(t.Root, qc, f.Row(t.Inv[q]), &ws.h)
		ws.out = ws.h.popAllInto(ws.out, t.Orig, f.Kern.Finish)
		return ws.out
	}
	return t.KNNLiveInto(qc, k, nil, ws)
}

// knn is the Euclidean traversal; heap keys are squared distances, the
// distance kernel was monomorphized once at tree build, and leaf scans run
// over contiguous kd-ordered rows. Leaf scans skip points whose original
// id is tombstoned (tomb is indexed by original id; nil means none).
func (t *Tree) knn(n *Node, qc []float64, tomb []bool, h *knnHeap) {
	if n == nil {
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
			h.push(p, kern(qc, data[r:r+d:r+d]))
		}
		return
	}
	left, right := t.LeftOf(n), t.RightOf(n)
	dl := geometry.SqDistPointBox(qc, left.Box)
	dr := geometry.SqDistPointBox(qc, right.Box)
	first, second := left, right
	df, ds := dl, dr
	if dr < dl {
		first, second = right, left
		df, ds = dr, dl
	}
	if df < h.worst() {
		t.knn(first, qc, tomb, h)
	}
	if ds < h.worst() {
		t.knn(second, qc, tomb, h)
	}
}

// knnMetric is the general traversal: heap keys are tree-metric distances
// and pruning uses the metric's point-box lower bound.
func (t *Tree) knnMetric(n *Node, qc []float64, tomb []bool, h *knnHeap) {
	if n == nil {
		return
	}
	if n.IsLeaf() {
		d := t.Pts.Dim
		data := t.Pts.Data
		for p := n.Lo; p < n.Hi; p++ {
			if tomb != nil && tomb[t.Orig[p]] {
				continue
			}
			r := int(p) * d
			h.push(p, t.M.Dist(qc, data[r:r+d:r+d]))
		}
		return
	}
	left, right := t.LeftOf(n), t.RightOf(n)
	dl := t.M.PointBoxLB(qc, left.Box)
	dr := t.M.PointBoxLB(qc, right.Box)
	first, second := left, right
	df, ds := dl, dr
	if dr < dl {
		first, second = right, left
		df, ds = dr, dl
	}
	if df < h.worst() {
		t.knnMetric(first, qc, tomb, h)
	}
	if ds < h.worst() {
		t.knnMetric(second, qc, tomb, h)
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
	dim := t.Pts.Dim
	data := t.Pts.Data
	parallel.ForRange(t.Pts.N, 64, func(lo, hi int) {
		af.Check()
		var h knnHeap
		for p := lo; p < hi; p++ {
			if t.f32 != nil {
				cd[t.Orig[p]] = t.coreDist32(p, minPts, &h)
				continue
			}
			h.reset(minPts)
			qc := data[p*dim : (p+1)*dim : (p+1)*dim]
			if t.l2 {
				t.knn(t.Root, qc, nil, &h)
				if len(h.sq) > 0 { // heap root is the k-th (or farthest available) NN
					cd[t.Orig[p]] = math.Sqrt(h.sq[0])
				}
				continue
			}
			t.knnMetric(t.Root, qc, nil, &h)
			if len(h.sq) > 0 {
				cd[t.Orig[p]] = h.sq[0]
			}
		}
	})
	return cd
}
