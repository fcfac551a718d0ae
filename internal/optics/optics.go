// Package optics implements the classic sequential OPTICS algorithm of
// Ankerst et al. (cited as [7] in the paper); Index.OPTICS runs it over the
// engine's shared tree and memoized core distances. Two reachability
// semantics are supported: the original asymmetric max{cd(p), d(p,q)} of
// Ankerst et al., which Index.OPTICS serves, and the symmetric mutual
// reachability max{cd(p), cd(q), d(p,q)} used by HDBSCAN*. With mutual
// semantics and eps = +Inf the algorithm is exactly Prim's algorithm on the
// mutual reachability graph, so its finite reachability values equal the
// HDBSCAN* MST edge weights — the tests use this to cross-validate the
// WSPD-based pipeline against an entirely independent implementation. The
// unbounded variant performs O(n^2) distance updates.
package optics

import (
	"math"

	"parclust/internal/kdtree"
)

// Entry is one position of the OPTICS ordering.
type Entry struct {
	Idx int32
	// Reachability is the reachability distance at which the point was
	// reached (+Inf for the first point of each connected component).
	Reachability float64
}

// RunOnTree computes the OPTICS ordering starting from point 0, over a
// prebuilt tree with precomputed core distances (original-id order,
// computed with the caller's minPts). eps bounds the neighborhoods
// considered (math.Inf(1) for the unbounded variant); mutual selects
// HDBSCAN*'s symmetric reachability instead of the original asymmetric one.
// All distance updates are min-reductions and the ordering heap breaks ties
// by point id, so the result is independent of the tree's leaf size and of
// neighbor enumeration order. The tree is only read.
func RunOnTree(t *kdtree.Tree, cd []float64, eps float64, mutual bool) []Entry {
	n := t.Pts.N
	if n == 0 {
		return nil
	}
	processed := make([]bool, n)
	reach := make([]float64, n)
	for i := range reach {
		reach[i] = math.Inf(1)
	}
	order := make([]Entry, 0, n)

	// Indexed binary min-heap over (reach, idx) so reachability updates can
	// decrease keys.
	heap := newIndexedHeap(n, reach)

	update := func(p int32) {
		if cd[p] > eps {
			return // not a core point within eps: spreads no reachability
		}
		var nbrs []int32
		if math.IsInf(eps, 1) {
			nbrs = allIndices(n)
		} else {
			nbrs = t.RangeQuery(p, eps)
		}
		for _, q := range nbrs {
			if processed[q] || q == p {
				continue
			}
			d := t.PairDist(p, q)
			if d > eps {
				continue
			}
			r := math.Max(cd[p], d)
			if mutual {
				r = math.Max(r, cd[q])
			}
			if r < reach[q] {
				reach[q] = r
				heap.decrease(q)
			}
		}
	}

	for len(order) < n {
		p, ok := heap.popUnprocessed(processed)
		if !ok {
			break
		}
		processed[p] = true
		order = append(order, Entry{Idx: p, Reachability: reach[p]})
		update(p)
	}
	return order
}

func allIndices(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// indexedHeap is a binary min-heap over point indices keyed by an external
// reachability array, with position tracking for decrease-key. Ties break
// toward the smaller index for deterministic output.
type indexedHeap struct {
	keys []float64
	heap []int32
	pos  []int32
}

func newIndexedHeap(n int, keys []float64) *indexedHeap {
	h := &indexedHeap{keys: keys, heap: make([]int32, n), pos: make([]int32, n)}
	for i := 0; i < n; i++ {
		h.heap[i] = int32(i)
		h.pos[i] = int32(i)
	}
	return h
}

func (h *indexedHeap) less(a, b int32) bool {
	ka, kb := h.keys[a], h.keys[b]
	if ka != kb {
		return ka < kb
	}
	return a < b
}

func (h *indexedHeap) swap(i, j int32) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = i
	h.pos[h.heap[j]] = j
}

func (h *indexedHeap) siftUp(i int32) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.heap[i], h.heap[p]) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

func (h *indexedHeap) siftDown(i int32) {
	n := int32(len(h.heap))
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && h.less(h.heap[c+1], h.heap[c]) {
			c++
		}
		if !h.less(h.heap[c], h.heap[i]) {
			return
		}
		h.swap(i, c)
		i = c
	}
}

// decrease restores heap order after keys[q] decreased.
func (h *indexedHeap) decrease(q int32) {
	if int(q) < len(h.pos) && h.pos[q] >= 0 {
		h.siftUp(h.pos[q])
	}
}

// popUnprocessed removes and returns the minimum-key index.
func (h *indexedHeap) popUnprocessed(processed []bool) (int32, bool) {
	for len(h.heap) > 0 {
		top := h.heap[0]
		last := int32(len(h.heap) - 1)
		h.swap(0, last)
		h.heap = h.heap[:last]
		h.pos[top] = -1
		if last > 0 {
			h.siftDown(0)
		}
		if !processed[top] {
			return top, true
		}
	}
	return -1, false
}
