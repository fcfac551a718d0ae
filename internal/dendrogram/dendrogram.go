// Package dendrogram implements Section 4 of the paper: ordered dendrogram
// construction from a weighted spanning tree, both the sequential bottom-up
// union-find algorithm and the parallel top-down heavy/light
// divide-and-conquer algorithm, together with reachability plots and
// cluster extraction (DBSCAN* cuts and single-linkage flat clusterings).
//
// A dendrogram over n points has leaves 0..n-1 (the points) and internal
// nodes n..2n-2, one per tree edge, in an id order where every parent id
// exceeds its children's ids. The dendrogram is "ordered" for a start
// vertex s: the in-order traversal of its leaves is exactly the order in
// which Prim's algorithm starting at s visits the points, so the in-order
// leaf sequence with LCA heights is the reachability plot (Theorem 4.2).
package dendrogram

import (
	"fmt"

	"parclust/internal/mst"
	"parclust/internal/parallel"
	"parclust/internal/unionfind"
)

// Dendrogram is a binary merge tree over n points. Internal node id x
// (n <= x <= 2n-2) has children Left[x-n], Right[x-n] and merge height
// Height[x-n] (the weight of the tree edge whose removal splits it). The
// dendrogram of zero points has no nodes and Root -1.
type Dendrogram struct {
	N      int
	Left   []int32
	Right  []int32
	Height []float64
	Root   int32
}

// IsLeaf reports whether dendrogram node id is a leaf (an input point).
func (d *Dendrogram) IsLeaf(id int32) bool { return int(id) < d.N }

// HeightOf returns the merge height of internal node id.
func (d *Dendrogram) HeightOf(id int32) float64 { return d.Height[int(id)-d.N] }

// Children returns the children of internal node id.
func (d *Dendrogram) Children(id int32) (int32, int32) {
	return d.Left[int(id)-d.N], d.Right[int(id)-d.N]
}

// NumInternal returns the number of internal (merge) nodes.
func (d *Dendrogram) NumInternal() int { return len(d.Height) }

// Sizes returns, for every node id in [0, 2n-1), the number of leaves in
// its subtree. It exploits the parent-id-greater-than-child-id invariant.
func (d *Dendrogram) Sizes() []int32 {
	sz := make([]int32, d.N+d.NumInternal())
	for i := 0; i < d.N; i++ {
		sz[i] = 1
	}
	for x := d.N; x < len(sz); x++ {
		sz[x] = sz[d.Left[x-d.N]] + sz[d.Right[x-d.N]]
	}
	return sz
}

func newDendrogram(n int) *Dendrogram {
	return &Dendrogram{
		N:      n,
		Left:   make([]int32, n-1),
		Right:  make([]int32, n-1),
		Height: make([]float64, n-1),
		Root:   int32(2*n - 2),
	}
}

// VertexDistances roots the spanning tree at s and returns every vertex's
// unweighted hop distance from s (the paper's "vertex distances"); a vertex
// the edges do not connect to s reads -1. It is one sequential O(n)
// breadth-first search over an adjacency array built by counting sort, and
// makes the same four allocations for every n. The paper ranks an Euler
// tour in parallel instead; at two workers a work-efficient list ranking
// measured faster than a sequential walk only on trees of more than about
// 300k–400k arcs (see the README's "Parallel runtime").
func VertexDistances(n int, edges []mst.Edge, s int32) []int32 {
	// After the fill below, v's neighbours are adj[off[v]:off[v+1]].
	off := make([]int32, n+1)
	for _, e := range edges {
		off[e.U]++
		off[e.V]++
	}
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	adj := make([]int32, 2*len(edges))
	for _, e := range edges {
		off[e.U]--
		adj[off[e.U]] = e.V
		off[e.V]--
		adj[off[e.V]] = e.U
	}
	depth := make([]int32, n)
	for v := range depth {
		depth[v] = -1
	}
	depth[s] = 0
	queue := make([]int32, 1, n)
	queue[0] = s
	for i := 0; i < len(queue); i++ {
		v := queue[i]
		for _, w := range adj[off[v]:off[v+1]] {
			if depth[w] < 0 {
				depth[w] = depth[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return depth
}

// BuildSequential builds the ordered dendrogram bottom-up: edges are sorted
// by the shared total order and merged with a union-find, placing the
// cluster that Prim reaches first (the side whose endpoint has the smaller
// vertex distance) as the left child.
func BuildSequential(n int, edges []mst.Edge, s int32) *Dendrogram {
	if len(edges) != n-1 {
		panic(fmt.Sprintf("dendrogram: need a spanning tree, got %d edges for %d points", len(edges), n))
	}
	if n == 1 {
		return &Dendrogram{N: 1, Root: 0}
	}
	vdist := VertexDistances(n, edges, s)
	d := newDendrogram(n)
	sorted := append([]mst.Edge(nil), edges...)
	parallel.Sort(sorted, mst.Less)
	uf := unionfind.New(n)
	cur := make([]int32, n) // cur[root]: dendrogram node of root's cluster
	for i := range cur {
		cur[i] = int32(i)
	}
	for j, e := range sorted {
		ru, rv := uf.Find(e.U), uf.Find(e.V)
		nu, nv := cur[ru], cur[rv]
		id := int32(n + j)
		if vdist[e.U] > vdist[e.V] { // v's side is entered first by Prim
			nu, nv = nv, nu
		}
		d.Left[j], d.Right[j], d.Height[j] = nu, nv, e.W
		uf.Union(e.U, e.V)
		cur[uf.Find(e.U)] = id
	}
	return d
}
