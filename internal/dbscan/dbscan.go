// Package dbscan implements the flat density-based clustering algorithms
// that HDBSCAN* generalizes (Section 1 and 2.1 of the paper): DBSCAN* of
// Campello et al. (core points only) and the original DBSCAN of Ester et
// al. (with border points). Both run eps-range queries over a prebuilt
// k-d tree; core-point detection is parallel, and component formation uses
// a union-find over core-core eps-edges. Index.DBSCANStar and Index.DBSCAN
// run these stages over the engine's shared tree.
//
// These serve as the classic single-radius baselines the hierarchy avoids
// recomputing: CutTree on the HDBSCAN* MST at radius eps must produce
// exactly the DBSCAN* clustering at (minPts, eps), which the tests verify.
package dbscan

import (
	"parclust/internal/kdtree"
	"parclust/internal/parallel"
	"parclust/internal/unionfind"
)

// Result is a flat clustering: Labels[i] in [0, NumClusters) or -1 for
// noise. Core[i] reports whether point i is a core point.
type Result struct {
	Labels      []int32
	NumClusters int
	Core        []bool
}

// CoreByRangeCount computes the core flags by definition over a prebuilt
// tree: at least minPts neighbors within eps, counting the point itself.
// On the L2 path the comparison happens in squared space (RangeCount), the
// exact semantics every DBSCAN entry point has always used — deriving core
// flags from sqrt'd core distances instead would flip boundary cases via
// double rounding.
func CoreByRangeCount(t *kdtree.Tree, minPts int, eps float64) []bool {
	core := make([]bool, t.Pts.N)
	parallel.For(t.Pts.N, 32, func(i int) {
		core[i] = t.RangeCount(int32(i), eps) >= minPts
	})
	return core
}

// StarWithCore computes the DBSCAN* clustering over a prebuilt tree given
// the core flags: clusters are the eps-connected components of core points,
// everything else is noise. Labels are numbered in first-seen point order,
// so the result is independent of the tree's leaf size or traversal order.
func StarWithCore(t *kdtree.Tree, core []bool, eps float64) Result {
	n := t.Pts.N
	// Connect core points within eps. Neighbor lists are computed in
	// parallel; unions are applied sequentially (they are cheap relative
	// to the queries).
	nbrs := make([][]int32, n)
	parallel.For(n, 32, func(i int) {
		if core[i] {
			nbrs[i] = t.RangeQuery(int32(i), eps)
		}
	})
	uf := unionfind.New(n)
	for i := 0; i < n; i++ {
		if !core[i] {
			continue
		}
		for _, j := range nbrs[i] {
			if core[j] {
				uf.Union(int32(i), j)
			}
		}
	}
	labels := make([]int32, n)
	next := int32(0)
	id := make(map[int32]int32)
	for i := 0; i < n; i++ {
		if !core[i] {
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
	return Result{Labels: labels, NumClusters: int(next), Core: core}
}

// AttachBorders upgrades a DBSCAN* result to the original Ester et al.
// DBSCAN: non-core points within eps of a core point are assigned to the
// cluster of their nearest core neighbor (smallest distance, ties toward
// the smaller id, so the result is deterministic). eps must be the radius
// the Star result was computed at; the labels slice is updated in place and
// res returned for convenience.
func AttachBorders(t *kdtree.Tree, res Result, eps float64) Result {
	n := t.Pts.N
	// The L2 tree compares squared distances (the seed behavior); other
	// kernels compare tree-metric distances — both orders are
	// monotone-equivalent.
	dist := func(i int, j int32) float64 { return t.Pts.SqDist(int(t.Inv[int32(i)]), int(t.Inv[j])) }
	maxD := eps * eps
	if !t.IsL2() {
		dist = func(i int, j int32) float64 { return t.PairDist(int32(i), j) }
		maxD = eps
	}
	borderLabel := make([]int32, n)
	parallel.For(n, 32, func(i int) {
		borderLabel[i] = -1
		if res.Core[i] {
			return
		}
		best := int32(-1)
		bestD := maxD
		for _, j := range t.RangeQuery(int32(i), eps) {
			if !res.Core[j] {
				continue
			}
			d := dist(i, j)
			if best < 0 || d < bestD || (d == bestD && j < best) {
				best = j
				bestD = d
			}
		}
		if best >= 0 {
			borderLabel[i] = res.Labels[best]
		}
	})
	for i := 0; i < n; i++ {
		if !res.Core[i] && borderLabel[i] >= 0 {
			res.Labels[i] = borderLabel[i]
		}
	}
	return res
}
