package dendrogram

import (
	"fmt"
	"sort"

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
	if seqThreshold < 1 {
		seqThreshold = 1
	}
	b := &builder{
		d:            newDendrogram(n),
		vdist:        VertexDistances(n, edges, s),
		seqThreshold: seqThreshold,
	}
	work := append([]mst.Edge(nil), edges...)
	b.solve(work, nil, nil, int32(n))
	return b.d
}

type builder struct {
	d            *Dendrogram
	vdist        []int32
	seqThreshold int
}

func repOf(rep map[int32]int32, v int32) int32 {
	if r, ok := rep[v]; ok {
		return r
	}
	return v
}

func leafOf(leaf map[int32]int32, sv int32) int32 {
	if l, ok := leaf[sv]; ok {
		return l
	}
	return sv
}

// solve builds the dendrogram of the subproblem given by edges, writing its
// internal nodes into ids [base, base+len(edges)). rep maps an original edge
// endpoint to its super-vertex (the entry vertex — minimum vertex distance —
// of the contracted cluster containing it); leaf maps a super-vertex to the
// dendrogram node representing its cluster. Missing map entries mean
// identity. The subproblem's root is always id base+len(edges)-1.
func (b *builder) solve(edges []mst.Edge, rep, leaf map[int32]int32, base int32) {
	m := len(edges)
	if m <= b.seqThreshold {
		b.seqBuild(edges, rep, leaf, base)
		return
	}
	k := m / heavyFraction
	if k < 1 {
		k = 1
	}
	// Heavy edges: the k heaviest under the shared total order.
	parallel.NthElement(edges, m-k, mst.Less)
	light, heavy := edges[:m-k], edges[m-k:]

	// Light components over super-vertices (local union-find).
	localIdx := make(map[int32]int32, 2*len(light))
	svs := make([]int32, 0, 2*len(light))
	local := func(sv int32) int32 {
		if li, ok := localIdx[sv]; ok {
			return li
		}
		li := int32(len(svs))
		localIdx[sv] = li
		svs = append(svs, sv)
		return li
	}
	lu := make([]int32, len(light))
	lv := make([]int32, len(light))
	for i, e := range light {
		lu[i] = local(repOf(rep, e.U))
		lv[i] = local(repOf(rep, e.V))
	}
	uf := unionfind.New(len(svs))
	for i := range light {
		uf.Union(lu[i], lv[i])
	}
	// Group light edges by component and find each component's entry
	// super-vertex (minimum vertex distance).
	edgesOf := make(map[int32][]mst.Edge)
	for i, e := range light {
		r := uf.Find(lu[i])
		edgesOf[r] = append(edgesOf[r], e)
	}
	entry := make(map[int32]int32) // component local root -> entry sv
	for li, sv := range svs {
		r := uf.Find(int32(li))
		if cur, ok := entry[r]; !ok || b.vdist[sv] < b.vdist[cur] {
			entry[r] = sv
		}
	}
	// Deterministic component order (map iteration is randomized): by the
	// entry's vertex distance, ties broken by the entry itself, which is
	// unique per component.
	roots := make([]int32, 0, len(edgesOf))
	for r := range edgesOf {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool {
		ei, ej := entry[roots[i]], entry[roots[j]]
		if b.vdist[ei] != b.vdist[ej] {
			return b.vdist[ei] < b.vdist[ej]
		}
		return ei < ej
	})

	// Assign id ranges: light components first, heavy part last.
	type sub struct {
		edges []mst.Edge
		base  int32
	}
	subs := make([]sub, 0, len(roots))
	compRootNode := make(map[int32]int32, len(roots)) // entry sv -> light dendro root id
	cursor := base
	for _, r := range roots {
		es := edgesOf[r]
		subs = append(subs, sub{edges: es, base: cursor})
		compRootNode[entry[r]] = cursor + int32(len(es)) - 1
		cursor += int32(len(es))
	}
	heavyBase := cursor // == base + m - k

	// Heavy subproblem maps: resolve endpoints through light contraction.
	repH := make(map[int32]int32, 2*len(heavy))
	leafH := make(map[int32]int32, 2*len(heavy))
	for _, e := range heavy {
		for _, v := range [2]int32{e.U, e.V} {
			if _, done := repH[v]; done {
				continue
			}
			sv := repOf(rep, v)
			if li, ok := localIdx[sv]; ok {
				sv = entry[uf.Find(li)]
			}
			repH[v] = sv
			if node, ok := compRootNode[sv]; ok {
				leafH[sv] = node
			} else {
				leafH[sv] = leafOf(leaf, sv)
			}
		}
	}

	// Solve all subproblems as one fork-join group; id ranges are disjoint,
	// so no synchronization beyond the join is needed. The light components
	// are spawned (stealable by idle workers) and the heavy subproblem — on
	// average the largest — runs inline on the current worker, so the
	// recursion stays depth-first wherever no steal happens.
	var g parallel.Group
	for _, sp := range subs {
		g.Spawn(func() { b.solve(sp.edges, rep, leaf, sp.base) })
	}
	g.Run(func() { b.solve(heavy, repH, leafH, heavyBase) })
	g.Sync()
}

// seqBuild is the sequential bottom-up base case over super-vertices.
func (b *builder) seqBuild(edges []mst.Edge, rep, leaf map[int32]int32, base int32) {
	m := len(edges)
	if m == 0 {
		return
	}
	sort.Slice(edges, func(i, j int) bool { return mst.Less(edges[i], edges[j]) })
	localIdx := make(map[int32]int32, m+1)
	cur := make([]int32, 0, m+1) // dendro node per local sv cluster root
	local := func(sv int32) int32 {
		if li, ok := localIdx[sv]; ok {
			return li
		}
		li := int32(len(cur))
		localIdx[sv] = li
		cur = append(cur, leafOf(leaf, sv))
		return li
	}
	// Pre-register svs so the union-find can be sized; edges are a tree over
	// svs, so there are exactly m+1 of them.
	lus := make([]int32, m)
	lvs := make([]int32, m)
	for i, e := range edges {
		lus[i] = local(repOf(rep, e.U))
		lvs[i] = local(repOf(rep, e.V))
	}
	uf := unionfind.New(len(cur))
	n := int32(b.d.N)
	for j, e := range edges {
		ru, rv := uf.Find(lus[j]), uf.Find(lvs[j])
		nu, nv := cur[ru], cur[rv]
		id := base + int32(j)
		if b.vdist[e.U] > b.vdist[e.V] {
			nu, nv = nv, nu
		}
		b.d.Left[id-n], b.d.Right[id-n], b.d.Height[id-n] = nu, nv, e.W
		uf.Union(lus[j], lvs[j])
		cur[uf.Find(lus[j])] = id
	}
}
