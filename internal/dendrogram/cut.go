package dendrogram

import (
	"math"
	"sort"
	"sync"

	"parclust/internal/mst"
	"parclust/internal/unionfind"
)

// Cutter answers repeated flat cuts over one spanning tree. Construction
// precomputes the sorted merge order once — the merge forest the sorted
// edges induce, plus the sorted core distances — so every subsequent
// CutAt(eps) runs in O(n) with a binary search selecting the merge prefix
// (no per-query union-find, no edge re-walk) and NumNoiseAt(eps) runs in
// O(log n). It is the single implementation behind Hierarchy.ClustersAt
// and Hierarchy.NumNoiseAt; CutTree remains only as the from-the-definition
// reference the tests diff against.
//
// A Cutter is immutable after construction and safe for concurrent use; it
// keeps a reference to coreDist, which callers must not mutate.
type Cutter struct {
	n int
	// heights[j] is the weight of merge j; ascending. In the merge forest
	// ids below n are points and n+j is merge j; parent[x] is the merge
	// that absorbs node x, always a larger id, or math.MaxInt32 at a root.
	heights []float64
	parent  []int32
	// coreDist is in point order (nil: every point is core); sortedCD is
	// its ascending copy for O(log n) noise counts.
	coreDist []float64
	sortedCD []float64

	scratch sync.Pool // *[]int32: CutAt's per-merge roots, reused across queries
}

// NewCutter precomputes the cut structure for the spanning tree (or forest)
// edges with the given per-point core distances (nil treats every point as
// core, the single-linkage semantics). Edges already sorted by the shared
// mst.Less total order — the order Kruskal emits — are used as-is; anything
// else is copied and sorted. The input slices are never mutated.
func NewCutter(n int, edges []mst.Edge, coreDist []float64) *Cutter {
	sorted := edges
	for i := 1; i < len(sorted); i++ {
		if mst.Less(sorted[i], sorted[i-1]) {
			sorted = append([]mst.Edge(nil), edges...)
			sort.Slice(sorted, func(a, b int) bool { return mst.Less(sorted[a], sorted[b]) })
			break
		}
	}
	c := &Cutter{
		n:        n,
		heights:  make([]float64, 0, len(sorted)),
		parent:   make([]int32, n, n+len(sorted)),
		coreDist: coreDist,
	}
	for i := range c.parent {
		c.parent[i] = math.MaxInt32
	}
	// Replay the merges once: cur[root] is the forest node currently
	// representing root's component.
	uf := unionfind.New(n)
	cur := make([]int32, n)
	for i := range cur {
		cur[i] = int32(i)
	}
	for _, e := range sorted {
		ru, rv := uf.Find(e.U), uf.Find(e.V)
		if ru == rv {
			continue // not a tree edge; harmless to skip
		}
		id := int32(len(c.parent))
		c.heights = append(c.heights, e.W)
		c.parent[cur[ru]], c.parent[cur[rv]] = id, id
		c.parent = append(c.parent, math.MaxInt32)
		uf.Union(e.U, e.V)
		cur[uf.Find(e.U)] = id
	}
	if coreDist != nil {
		c.sortedCD = append([]float64(nil), coreDist...)
		sort.Float64s(c.sortedCD)
	}
	c.scratch.New = func() any { return new([]int32) }
	return c
}

// N returns the number of points the Cutter was built over.
func (c *Cutter) N() int { return c.n }

// CutAt extracts the flat DBSCAN* clustering at radius eps: points whose
// core distance exceeds eps are noise; the remaining points are grouped by
// the precomputed merges of height at most eps. Labels are numbered in
// first-seen point order, exactly matching CutTree. It writes only the
// labels and a k-entry scratch, for the k merges it applies.
func (c *Cutter) CutAt(eps float64) Clustering {
	labels := make([]int32, c.n)
	k := 0
	if !math.IsNaN(eps) { // NaN admits no merge (matches e.W <= eps)
		k = sort.Search(len(c.heights), func(i int) bool { return c.heights[i] > eps })
	}
	s := c.scratch.Get().(*[]int32)
	defer c.scratch.Put(s)
	if cap(*s) < k {
		*s = make([]int32, k)
	}
	// root[j] is the applied merge at the top of merge j's cut tree: a
	// parent is a larger id, so a descending pass resolves it first, and a
	// parent at or above n+k is not applied.
	root, top := (*s)[:k], int32(c.n+k)
	for j := k - 1; j >= 0; j-- {
		if p := c.parent[c.n+j]; p < top {
			root[j] = root[p-int32(c.n)]
		} else {
			root[j] = int32(j)
		}
	}
	// A labelled root holds -(label+1) in place of its own index.
	next := int32(0)
	for i := 0; i < c.n; i++ {
		if c.coreDist != nil && c.coreDist[i] > eps {
			labels[i] = -1
			continue
		}
		p := c.parent[i]
		if p >= top { // a point no applied merge absorbs is its own cluster
			labels[i] = next
			next++
			continue
		}
		j := p - int32(c.n)
		if root[j] >= 0 {
			j = root[j]
		}
		if root[j] >= 0 { // an unlabelled root
			root[j] = -(next + 1)
			next++
		}
		labels[i] = -root[j] - 1
	}
	return Clustering{Labels: labels, NumClusters: int(next)}
}

// NumNoiseAt returns the number of noise points at radius eps — the count
// of core distances exceeding eps — by binary search over the sorted core
// distances.
func (c *Cutter) NumNoiseAt(eps float64) int {
	if c.sortedCD == nil {
		return 0
	}
	return c.n - sort.Search(len(c.sortedCD), func(i int) bool { return c.sortedCD[i] > eps })
}
