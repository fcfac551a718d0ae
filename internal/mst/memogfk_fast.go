package mst

import (
	"math"

	"parclust/internal/abort"
	"parclust/internal/geometry"
	"parclust/internal/kdtree"
	"parclust/internal/parallel"
	"parclust/internal/wspd"
)

// Monomorphized squared-space MemoGFK traversals for the two L2-backed
// edge metrics (plain Euclidean, and mutual reachability over Euclidean).
// The generic traversals in memogfk.go pay an interface dispatch plus a
// sqrt per node-pair bound; here every bound is a direct, inlinable
// squared-space computation, and rho_lo/rho_hi live in squared space for
// the whole run (squaring is monotone, so round structure and the
// retrieved pair sets are unchanged). True metric weights are evaluated
// once per emitted edge.

// sqCfg is the state of a squared-space MemoGFK run.
type sqCfg struct {
	t     *kdtree.Tree
	cd    []float64 // kd-order core distances; nil for plain Euclidean
	m     kdtree.Metric
	sep   wspd.Separation
	stats *Stats
	af    *abort.Flag

	// brute marks a float32-fast-path run, which changes two things in
	// getPairsPairSq: small non-separated pairs take the brute-force scan
	// cutoff instead of recursing (traversal overhead dominates high-dim
	// runs), and window tests re-evaluate the returned BCCP pair exactly
	// (see the comment there). comp holds the per-position component
	// labels the scan filters with (the workspace array refreshed each
	// round). The float64 traversal is unchanged.
	brute bool
	comp  []int32
}

// sqConfigFor returns the squared-space state when cfg's metric is one of
// the two L2-backed kernels, or nil to run the generic traversals.
func sqConfigFor(cfg Config) *sqCfg {
	switch m := cfg.Metric.(type) {
	case kdtree.Euclidean:
		return &sqCfg{t: cfg.Tree, m: cfg.Metric, sep: cfg.Sep, stats: cfg.Stats, af: cfg.Abort}
	case kdtree.MutualReachability:
		if m.M == nil {
			return &sqCfg{t: cfg.Tree, cd: m.CD, m: cfg.Metric, sep: cfg.Sep, stats: cfg.Stats, af: cfg.Abort}
		}
	}
	return nil
}

// lb2b / ub2b are bounded node-pair bounds: exact below bound, and a result
// >= bound only certifies the true bound is >= bound. The traversals use
// them wherever a node-pair bound is tested against a fixed threshold —
// in high dimension the O(dim) box scans there dominate the run, and the
// early exit typically fires within the first few coordinates.
func (c *sqCfg) lb2b(a, b *kdtree.Node, bound float64) float64 {
	if c.cd == nil {
		return geometry.SqDistBoxesBounded(a.Box, b.Box, bound)
	}
	return kdtree.SqMutNodeLBBounded(a, b, bound)
}

func (c *sqCfg) ub2b(a, b *kdtree.Node, bound float64) float64 {
	if c.cd == nil {
		return geometry.SqMaxDistBoxesBounded(a.Box, b.Box, bound)
	}
	return kdtree.SqMutNodeUBBounded(a, b, bound)
}

// getRhoSq is getRho with all bounds in squared space.
func getRhoSq(c *sqCfg, root *kdtree.Node, beta int) float64 {
	rho := parallel.NewAtomicMinFloat64(math.Inf(1))
	getRhoNodeSq(c, root, beta, rho)
	return rho.Load()
}

func getRhoNodeSq(c *sqCfg, a *kdtree.Node, beta int, rho *parallel.AtomicMinFloat64) {
	if a.IsLeaf() || a.Size() <= 1 {
		return
	}
	if a.Comp >= 0 {
		return
	}
	if a.Size() <= beta {
		return
	}
	al, ar := c.t.LeftOf(a), c.t.RightOf(a)
	if a.Size() > spawnSize {
		c.af.Check()
		var g parallel.Group
		g.Spawn(func() { getRhoNodeSq(c, al, beta, rho) })
		g.Spawn(func() { getRhoNodeSq(c, ar, beta, rho) })
		g.Run(func() { getRhoPairSq(c, al, ar, beta, rho) })
		g.Sync()
		return
	}
	getRhoNodeSq(c, al, beta, rho)
	getRhoNodeSq(c, ar, beta, rho)
	getRhoPairSq(c, al, ar, beta, rho)
}

func getRhoPairSq(c *sqCfg, p, q *kdtree.Node, beta int, rho *parallel.AtomicMinFloat64) {
	if connected(p, q) {
		return
	}
	if p.Size()+q.Size() <= beta {
		return
	}
	limit := rho.Load()
	lb := c.lb2b(p, q, limit)
	if lb >= limit {
		return
	}
	if p.Radius < q.Radius {
		p, q = q, p
	}
	if c.sep.WellSeparated(p, q) {
		rho.Min(lb)
		return
	}
	if p.IsLeaf() {
		p, q = q, p
	}
	pl, pr := c.t.LeftOf(p), c.t.RightOf(p)
	if p.Size()+q.Size() > spawnSize {
		c.af.Check()
		parallel.Do(
			func() { getRhoPairSq(c, pl, q, beta, rho) },
			func() { getRhoPairSq(c, pr, q, beta, rho) },
		)
		return
	}
	getRhoPairSq(c, pl, q, beta, rho)
	getRhoPairSq(c, pr, q, beta, rho)
}

// getPairsNodeSq is getPairsNode with bounds and the [rhoLo2, rhoHi2)
// window in squared space; appended edges carry true metric weights.
func getPairsNodeSq(c *sqCfg, a *kdtree.Node, beta int, rhoLo2, rhoHi2 float64, out *[]Edge) {
	if a.IsLeaf() || a.Size() <= 1 || a.Comp >= 0 {
		return
	}
	al, ar := c.t.LeftOf(a), c.t.RightOf(a)
	if a.Size() > spawnSize {
		c.af.Check()
		var right, mid []Edge
		var g parallel.Group
		g.Spawn(func() { getPairsNodeSq(c, al, beta, rhoLo2, rhoHi2, out) })
		g.Spawn(func() { getPairsNodeSq(c, ar, beta, rhoLo2, rhoHi2, &right) })
		g.Run(func() { getPairsPairSq(c, al, ar, beta, rhoLo2, rhoHi2, &mid) })
		g.Sync()
		*out = append(append(*out, right...), mid...)
		return
	}
	getPairsNodeSq(c, al, beta, rhoLo2, rhoHi2, out)
	getPairsNodeSq(c, ar, beta, rhoLo2, rhoHi2, out)
	getPairsPairSq(c, al, ar, beta, rhoLo2, rhoHi2, out)
}

func getPairsPairSq(c *sqCfg, p, q *kdtree.Node, beta int, rhoLo2, rhoHi2 float64, out *[]Edge) {
	if connected(p, q) {
		return
	}
	if c.lb2b(p, q, rhoHi2) >= rhoHi2 {
		return
	}
	if c.ub2b(p, q, rhoLo2) < rhoLo2 {
		return
	}
	if p.Radius < q.Radius {
		p, q = q, p
	}
	if c.sep.WellSeparated(p, q) {
		res := kdtree.BCCPSq(c.t, c.cd, p, q)
		c.stats.AddBCCP(1)
		if c.brute && res.U >= 0 {
			// The float32 traversal returns a rounded weight, but the
			// window ratchets in exact space: an edge whose rounded weight
			// dips below rhoLo would be dropped in this round and pruned in
			// every later one (the pair's bounds never re-admit it), so a
			// heavier edge would silently take its place in the MST.
			// Re-evaluating the one returned pair exactly keeps every edge
			// in the round whose window contains its exact weight.
			res.W = c.exactSqWeight(res.U, res.V)
		}
		if res.W >= rhoLo2 && res.W < rhoHi2 {
			// One true-metric evaluation per emitted edge.
			*out = append(*out, MakeEdge(res.U, res.V, c.m.Dist(res.U, res.V)))
		}
		return
	}
	if c.brute && p.Size()+q.Size() <= bruteSize {
		brutePairsSq(c, p, q, rhoLo2, rhoHi2, out)
		return
	}
	if p.IsLeaf() {
		p, q = q, p
	}
	pl, pr := c.t.LeftOf(p), c.t.RightOf(p)
	if p.Size()+q.Size() > spawnSize {
		c.af.Check()
		var r []Edge
		parallel.Do(
			func() { getPairsPairSq(c, pl, q, beta, rhoLo2, rhoHi2, out) },
			func() { getPairsPairSq(c, pr, q, beta, rhoLo2, rhoHi2, &r) },
		)
		*out = append(*out, r...)
		return
	}
	getPairsPairSq(c, pl, q, beta, rhoLo2, rhoHi2, out)
	getPairsPairSq(c, pr, q, beta, rhoLo2, rhoHi2, out)
}

// exactSqWeight is the exact squared-space weight of the pair of kd
// positions (u, v): squared Euclidean distance, maxed with the squared
// core distances under mutual reachability.
func (c *sqCfg) exactSqWeight(u, v int32) float64 {
	d := c.t.Pts.Dim
	ru, rv := int(u)*d, int(v)*d
	data := c.t.Pts.Data
	w := geometry.SqDistVec(data[ru:ru+d:ru+d], data[rv:rv+d:rv+d])
	if c.cd != nil {
		if cu2 := c.cd[u] * c.cd[u]; cu2 > w {
			w = cu2
		}
		if cv2 := c.cd[v] * c.cd[v]; cv2 > w {
			w = cv2
		}
	}
	return w
}

// bruteSize is the combined-cardinality cutoff below which getPairsPairSq
// stops recursing on non-well-separated pairs and scans the cross product
// directly (float32 mode only).
const bruteSize = 64

// brutePairsSq replaces the sub-recursion below a small, non-separated
// node pair with one pass over the two kd-contiguous row ranges, emitting
// every cross-component edge whose squared weight lands in the round's
// window. The recursion would bottom out in singleton pairs — which are
// always well-separated — so its emitted edge set is a subset of this
// one, and Kruskal discards the extra true-weight edges; what the scan
// saves is the O(dim) box-bound evaluation at every intermediate node
// pair, the dominant cost of high-dimensional traversals. Weights and
// window tests stay in exact float64, so round structure is unaffected.
func brutePairsSq(c *sqCfg, p, q *kdtree.Node, rhoLo2, rhoHi2 float64, out *[]Edge) {
	d := c.t.Pts.Dim
	data := c.t.Pts.Data
	for u := p.Lo; u < p.Hi; u++ {
		ru := int(u) * d
		uc := data[ru : ru+d : ru+d]
		cu := c.comp[u]
		var cu2 float64
		if c.cd != nil {
			cu2 = c.cd[u] * c.cd[u]
		}
		for v := q.Lo; v < q.Hi; v++ {
			if c.comp[v] == cu {
				continue
			}
			rv := int(v) * d
			w := geometry.SqDistVec(uc, data[rv:rv+d:rv+d])
			if c.cd != nil {
				if cu2 > w {
					w = cu2
				}
				if cv2 := c.cd[v] * c.cd[v]; cv2 > w {
					w = cv2
				}
			}
			if w >= rhoLo2 && w < rhoHi2 {
				*out = append(*out, MakeEdge(u, v, c.m.Dist(u, v)))
			}
		}
	}
}
