package dendrogram

import (
	"cmp"
	"fmt"
	"slices"

	"parclust/internal/mst"
	"parclust/internal/parallel"
	"parclust/internal/unionfind"
)

// DefaultSeqThreshold is the subproblem size below which the parallel
// builder switches to the sequential algorithm (implementation note of
// Section 4.2).
const DefaultSeqThreshold = 2048

// heavyFraction selects m/heavyFraction heaviest edges per level (the paper
// found n/10 to work well across datasets).
const heavyFraction = 10

// BuildParallel builds the ordered dendrogram with the top-down
// divide-and-conquer algorithm of Section 4.2: each level extracts the m/10
// heaviest edges (which form the top of the dendrogram), contracts the
// connected components of the remaining light edges into super-vertices,
// and solves the heavy subproblem and every light subproblem recursively in
// parallel. Internal node ids are assigned deterministic contiguous ranges
// (light components first, heavy part last) so that all subproblems write
// disjoint ranges with no synchronization, the root of a subproblem over m
// edges is always its last id, and the parent-id > child-id invariant holds.
func BuildParallel(n int, edges []mst.Edge, s int32) *Dendrogram {
	return BuildParallelThreshold(n, edges, s, DefaultSeqThreshold)
}

// BuildParallelThreshold is BuildParallel with an explicit sequential
// cutoff, used by the ablation benchmarks.
func BuildParallelThreshold(n int, edges []mst.Edge, s int32, seqThreshold int) *Dendrogram {
	if n == 0 && len(edges) == 0 {
		return &Dendrogram{Root: -1}
	}
	if len(edges) != n-1 {
		panic(fmt.Sprintf("dendrogram: need a spanning tree, got %d edges for %d points", len(edges), n))
	}
	if n == 1 {
		return &Dendrogram{N: 1, Root: 0}
	}
	b := &builder{d: newDendrogram(n), seqThreshold: max(seqThreshold, 1)}
	m := len(edges)
	buf := make([]subEdge, 2*m)
	top := subproblem{edges: buf[:m], spare: buf[m:], verts: make([]vertex, n), base: int32(n)}
	// Splitting off the heavy edges reads no vertex distance, so the top
	// level splits while the search computes them.
	var light *unionfind.UF
	parallel.Do(func() { b.vdist = VertexDistances(n, edges, s) }, func() {
		for i, e := range edges {
			top.edges[i] = subEdge{e: e, u: e.U, v: e.V}
		}
		for v := range top.verts {
			top.verts[v] = vertex{entry: int32(v), node: int32(v)}
		}
		light = b.split(top)
	})
	b.finish(top, light)
	return b.d
}

type builder struct {
	d            *Dendrogram
	vdist        []int32
	seqThreshold int
}

// subEdge is a tree edge of a subproblem: the original edge, whose place in
// the shared total order fixes when it merges and whose endpoints' vertex
// distances decide which side becomes the left child, and the local
// vertices on the side of its U and of its V endpoint.
type subEdge struct {
	e    mst.Edge
	u, v int32
}

func lessSubEdge(a, b subEdge) bool { return mst.Less(a.e, b.e) }

// vertex is a local vertex of a subproblem: a contracted cluster of
// original vertices, given by its entry (the member of least vertex
// distance, which Prim reaches first) and the dendrogram node that
// represents it.
type vertex struct {
	entry, node int32
}

// subproblem is a tree of m edges over the local vertices 0..m, whose
// internal dendrogram nodes take ids [base, base+m); its root is base+m-1.
// A subproblem owns its slices: it reorders edges and overwrites verts, and
// spare, as long as edges, is scratch for relabelling its light edges.
type subproblem struct {
	edges, spare []subEdge
	verts        []vertex
	base         int32
}

// heavyCount is the number of heavy edges split off a subproblem of m edges.
func heavyCount(m int) int { return max(m/heavyFraction, 1) }

// solve builds the dendrogram of subproblem p.
func (b *builder) solve(p subproblem) { b.finish(p, b.split(p)) }

// split returns nil when p is at or below the sequential cutoff. Otherwise
// it moves p's heavyCount heaviest edges to its end and returns the
// union-find of the light forest that the other edges form over p's
// vertices.
func (b *builder) split(p subproblem) *unionfind.UF {
	m := len(p.edges)
	if m <= b.seqThreshold {
		return nil
	}
	k := heavyCount(m)
	parallel.NthElement(p.edges, m-k, lessSubEdge)
	uf := unionfind.New(m + 1)
	for _, e := range p.edges[:m-k] {
		uf.Union(e.u, e.v)
	}
	return uf
}

// finish completes subproblem p once split has returned light for it: with
// the sequential base case when light is nil, and otherwise by contracting
// the light forest's components, numbered by counting sort, and handing
// each of them, and the heavy tree over all k+1 components, to a
// subproblem of its own.
func (b *builder) finish(p subproblem, light *unionfind.UF) {
	if light == nil {
		b.seqBuild(p)
		return
	}
	m := len(p.edges)
	k := heavyCount(m)
	lightEdges, heavy := p.edges[:m-k], p.edges[m-k:]

	// Per local vertex v: comp[v] is the root of v's light component and
	// local[v] is v's id in the subproblem it moves to. Per root r: head[r]
	// is the member whose entry has the least vertex distance, which is
	// unique because the component's clusters form a connected subtree of
	// the tree rooted at s, and so is the whole component's entry; size[r]
	// counts its light edges; id[r] is its vertex in the heavy tree, which
	// for a component with edges is also its rank among them.
	scratch := make([]int32, 5*(m+1))
	perVertex := func(i int) []int32 { return scratch[i*(m+1) : (i+1)*(m+1)] }
	comp, local, head, size, id := perVertex(0), perVertex(1), perVertex(2), perVertex(3), perVertex(4)
	dist := func(v int32) int32 { return b.vdist[p.verts[v].entry] }
	for v := range comp {
		head[v] = int32(v)
	}
	for v := range comp {
		r := light.Find(int32(v))
		comp[v] = r
		if dist(int32(v)) < dist(head[r]) {
			head[r] = int32(v)
		}
	}
	for _, e := range lightEdges {
		size[comp[e.u]]++
	}
	roots := make([]int32, 0, k+1)
	for v, r := range comp {
		if r == int32(v) && size[r] > 0 {
			roots = append(roots, r)
		}
	}
	// Light components take node ids in the order of their entry's vertex
	// distance, ties broken by the entry itself; the heavy part comes last.
	slices.SortFunc(roots, func(x, y int32) int {
		ex, ey := p.verts[head[x]].entry, p.verts[head[y]].entry
		if c := cmp.Compare(b.vdist[ex], b.vdist[ey]); c != 0 {
			return c
		}
		return cmp.Compare(ex, ey)
	})

	// The level's vertex table holds each light component's vertices (one
	// more than its edges) in that order, then the heavy tree's k+1: the
	// light components in the same order, each as its dendrogram root, and
	// the untouched vertices as they were.
	nl := len(roots)
	verts := make([]vertex, m-k+nl+k+1)
	hverts := verts[m-k+nl:]
	subs := make([]subproblem, nl)
	var off int32
	for c, r := range roots {
		sz, voff := size[r], off+int32(c)
		subs[c] = subproblem{
			edges: p.spare[off : off+sz],
			spare: p.edges[off : off+sz],
			verts: verts[voff : voff+sz+1],
			base:  p.base + off,
		}
		hverts[c] = vertex{entry: p.verts[head[r]].entry, node: p.base + off + sz - 1}
		id[r] = int32(c)
		off += sz
	}
	// Counting sort: nv[c] and ne[c] count the vertices and edges already
	// moved into light component c's subproblem.
	cursors := make([]int32, 2*nl)
	nv, ne := cursors[:nl], cursors[nl:]
	h := int32(nl)
	for v, r := range comp {
		switch {
		case size[r] > 0:
			c := id[r]
			local[v] = nv[c]
			subs[c].verts[nv[c]] = p.verts[v]
			nv[c]++
		case r == int32(v):
			id[r] = h
			hverts[h] = p.verts[v]
			h++
		}
	}
	for _, e := range lightEdges {
		c := id[comp[e.u]]
		subs[c].edges[ne[c]] = subEdge{e: e.e, u: local[e.u], v: local[e.v]}
		ne[c]++
	}
	for i, e := range heavy {
		heavy[i].u, heavy[i].v = id[comp[e.u]], id[comp[e.v]]
	}

	// Solve all subproblems as one fork-join group; id ranges are disjoint,
	// so no synchronization beyond the join is needed. The light components
	// are spawned (stealable by idle workers) and the heavy subproblem — on
	// average the largest — runs inline on the current worker, so the
	// recursion stays depth-first wherever no steal happens.
	var g parallel.Group
	for _, sp := range subs {
		g.Spawn(func() { b.solve(sp) })
	}
	g.Run(func() {
		b.solve(subproblem{edges: heavy, spare: p.spare[m-k:], verts: hverts, base: p.base + int32(m-k)})
	})
	g.Sync()
}

// seqBuild is the sequential bottom-up base case: Kruskal over the
// subproblem's edges in the shared total order, placing the cluster that
// Prim reaches first (the side whose original endpoint has the smaller
// vertex distance) as the left child.
func (b *builder) seqBuild(p subproblem) {
	slices.SortFunc(p.edges, func(x, y subEdge) int { return mst.Compare(x.e, y.e) })
	uf := unionfind.New(len(p.verts))
	n := int32(b.d.N)
	for j, e := range p.edges {
		ru, rv := uf.Find(e.u), uf.Find(e.v)
		l, r := p.verts[ru].node, p.verts[rv].node
		if b.vdist[e.e.U] > b.vdist[e.e.V] {
			l, r = r, l
		}
		id := p.base + int32(j)
		b.d.Left[id-n], b.d.Right[id-n], b.d.Height[id-n] = l, r, e.e.W
		uf.Union(ru, rv)
		p.verts[uf.Find(ru)].node = id
	}
}
