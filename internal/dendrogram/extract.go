package dendrogram

import (
	"math"

	"parclust/internal/mst"
	"parclust/internal/unionfind"
)

// Bar is one entry of a reachability plot: point Idx with reachability
// height H (the paper's min mutual-reachability distance to any earlier
// point in Prim order; +Inf for the first point).
type Bar struct {
	Idx int32
	H   float64
}

// ReachabilityPlot returns the reachability plot encoded by the ordered
// dendrogram: the in-order traversal of its leaves, where each leaf's height
// is the merge height of the internal node separating it from its in-order
// predecessor (the dendrogram is the Cartesian tree of the plot).
func (d *Dendrogram) ReachabilityPlot() []Bar {
	out := make([]Bar, 0, d.N)
	if d.N == 0 {
		return out
	}
	pending := math.Inf(1)
	// Iterative in-order traversal (the dendrogram can be path-shaped).
	type frame struct {
		id   int32
		seen bool
	}
	stack := make([]frame, 0, 64)
	stack = append(stack, frame{id: d.Root})
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if d.IsLeaf(f.id) {
			out = append(out, Bar{Idx: f.id, H: pending})
			continue
		}
		if f.seen {
			pending = d.HeightOf(f.id)
			continue
		}
		l, r := d.Children(f.id)
		stack = append(stack, frame{id: r})
		stack = append(stack, frame{id: f.id, seen: true})
		stack = append(stack, frame{id: l})
	}
	return out
}

// PrimOrder is the validation oracle for ordered dendrograms: it simulates
// Prim's algorithm over the tree edges starting at s, breaking ties with the
// shared total order, and returns the reachability plot directly.
func PrimOrder(n int, edges []mst.Edge, s int32) []Bar {
	adj := make([][]mst.Edge, n)
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], e)
		adj[e.V] = append(adj[e.V], e)
	}
	visited := make([]bool, n)
	out := make([]Bar, 0, n)
	// Frontier as a simple binary heap ordered by mst.Less on (edge, to).
	type item struct {
		e  mst.Edge
		to int32
	}
	less := func(a, b item) bool { return mst.Less(a.e, b.e) }
	heap := make([]item, 0, n)
	push := func(it item) {
		heap = append(heap, it)
		c := len(heap) - 1
		for c > 0 {
			p := (c - 1) / 2
			if !less(heap[c], heap[p]) {
				break
			}
			heap[p], heap[c] = heap[c], heap[p]
			c = p
		}
	}
	pop := func() item {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		p := 0
		for {
			c := 2*p + 1
			if c >= len(heap) {
				break
			}
			if c+1 < len(heap) && less(heap[c+1], heap[c]) {
				c++
			}
			if !less(heap[c], heap[p]) {
				break
			}
			heap[p], heap[c] = heap[c], heap[p]
			p = c
		}
		return top
	}
	visit := func(v int32, h float64) {
		visited[v] = true
		out = append(out, Bar{Idx: v, H: h})
		for _, e := range adj[v] {
			to := e.U
			if to == v {
				to = e.V
			}
			if !visited[to] {
				push(item{e: e, to: to})
			}
		}
	}
	visit(s, math.Inf(1))
	for len(heap) > 0 {
		it := pop()
		if !visited[it.to] {
			visit(it.to, it.e.W)
		}
	}
	return out
}

// Clustering is a flat clustering: Labels[i] is point i's cluster id in
// [0, NumClusters), or -1 for noise.
type Clustering struct {
	Labels      []int32
	NumClusters int
}

// CutTree extracts the DBSCAN* clustering at radius eps from the MST of the
// mutual reachability graph: points whose core distance exceeds eps are
// noise; the remaining points are grouped by the MST edges of weight at
// most eps (Section 2.1). Pass nil core distances (or minPts <= 1
// semantics) to treat every point as core, which yields the single-linkage
// clustering of the EMST at distance eps.
//
// CutTree re-runs a union-find over every edge per call; it is the
// from-the-definition reference the tests diff Cutter against. Production
// callers answering repeated cuts should build a Cutter once instead.
func CutTree(n int, edges []mst.Edge, coreDist []float64, eps float64) Clustering {
	uf := unionfind.New(n)
	for _, e := range edges {
		if e.W <= eps {
			uf.Union(e.U, e.V)
		}
	}
	labels := make([]int32, n)
	next := int32(0)
	id := make(map[int32]int32, n)
	for i := 0; i < n; i++ {
		if coreDist != nil && coreDist[i] > eps {
			labels[i] = -1
			continue
		}
		r := uf.Find(int32(i))
		c, ok := id[r]
		if !ok {
			c = next
			id[r] = c
			next++
		}
		labels[i] = c
	}
	return Clustering{Labels: labels, NumClusters: int(next)}
}
