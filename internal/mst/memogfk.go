package mst

import (
	"fmt"
	"math"
	"time"

	"parclust/internal/geometry"
	"parclust/internal/kdtree"
	"parclust/internal/parallel"
)

// MemoGFK is the memory-optimized parallel GeoFilterKruskal (Algorithm 3).
// Instead of materializing the WSPD, each round performs two pruned k-d tree
// traversals: GetRho computes the weight ceiling rho_hi for the round (the
// minimum node-pair lower bound over not-yet-connected well-separated pairs
// with cardinality above beta), and GetPairs retrieves only the pairs whose
// BCCP lands in [rho_lo, rho_hi), feeding their edges to KruskalBatch. The
// union-find, component labels and the round's edge batch live in the
// reusable workspace: the retrieval appends into the batch in place, only
// a fork above spawnSize gives a branch its own buffer, and KruskalBatch
// filters and sorts the batch in place. Returned edges carry original ids
// in Kruskal acceptance order.
func MemoGFK(cfg Config) []Edge {
	t := cfg.Tree
	n := t.Pts.N
	if n <= 1 {
		return nil
	}
	ws := cfg.WS
	if ws == nil {
		ws = NewWorkspace()
	}
	ws.grow(n)
	r := newMemoRun(cfg, ws.comp)
	beta := 2
	rhoLo := 0.0
	for round := 0; len(ws.out) < n-1; round++ {
		if round >= roundCap(cfg, n) {
			panic(fmt.Sprintf("mst: MemoGFK exceeded %d rounds (n=%d, |out|=%d)", maxRounds, n, len(ws.out)))
		}
		cfg.Abort.Check()
		cfg.Stats.AddRound()
		start := time.Now()
		t.RefreshComponentsInto(ws.uf, ws.comp)
		cfg.Stats.AddPhase(PhaseRefresh, time.Since(start))

		// Line 4: rho_hi via the first pruned traversal.
		var rhoHi float64
		cfg.Stats.Time(PhaseWSPD, func() {
			rho := parallel.NewAtomicMinFloat64(math.Inf(1))
			r.getRhoNode(t.Root, beta, rho)
			rhoHi = rho.Load()
		})

		if rhoHi > rhoLo {
			// Line 5: retrieve only pairs with BCCP in [rho_lo, rho_hi).
			ws.batch = ws.batch[:0]
			var calls int64
			cfg.Stats.Time(PhaseWSPD, func() {
				calls = r.getPairsNode(t.Root, beta, rhoLo, rhoHi, &ws.batch)
			})
			cfg.Stats.AddBCCP(calls)
			cfg.Stats.AddPairs(int64(len(ws.batch)))
			cfg.Stats.NotePeak(int64(len(ws.batch)))
			// Lines 6-7.
			cfg.Stats.Time(PhaseKruskal, func() {
				ws.out = KruskalBatch(ws.batch, ws.uf, ws.out)
			})
			if !math.IsInf(rhoHi, 1) {
				rhoLo = rhoHi
			} else if len(ws.batch) == 0 && len(ws.out) < n-1 {
				panic("mst: MemoGFK stalled with an incomplete MST")
			}
		}
		beta = nextBeta(cfg, beta)
	}
	return ws.finish(t.Orig)
}

// memoRun is one MemoGFK run. Its node-pair bounds, BCCPs and the
// [rho_lo, rho_hi) window all live in one window space. For the two
// L2-backed edge metrics on an L2 tree (plain Euclidean, and mutual
// reachability over Euclidean) that is squared space: every bound is a
// direct squared-space computation with an early exit, and the true metric
// weight is evaluated once per emitted edge. Squaring is monotone, so the
// round structure and the retrieved pairs match the metric-space run. For
// every other metric the window space is the metric's own.
type memoRun struct {
	Config
	sq bool      // window space is squared
	cd []float64 // kd-order core distances under squared mutual reachability

	// brute marks a squared run on a float32 tree, which changes two
	// things in getPairsPair: small non-separated pairs take the
	// brute-force scan cutoff instead of recursing (traversal overhead
	// dominates high-dim runs), and window tests re-evaluate the returned
	// BCCP pair exactly (see bccp). comp holds the per-position component
	// labels the scan filters with (the workspace array refreshed each
	// round).
	brute bool
	comp  []int32
}

func newMemoRun(cfg Config, comp []int32) *memoRun {
	r := &memoRun{Config: cfg}
	if cfg.Tree.IsL2() {
		switch m := cfg.Metric.(type) {
		case kdtree.Euclidean:
			r.sq = true
		case kdtree.MutualReachability:
			if m.M == nil {
				r.sq, r.cd = true, m.CD
			}
		}
	}
	if r.sq && cfg.Tree.F32() != nil {
		r.brute, r.comp = true, comp
	}
	return r
}

// lb lower-bounds the window-space weight of every edge between p and q.
// In squared space it exits early once the bound reaches limit: the result
// is exact below limit and otherwise only certifies lb >= limit, which is
// all the threshold tests below need. In high dimension the O(dim) box
// scans dominate the run, and the early exit typically fires within the
// first few coordinates.
func (r *memoRun) lb(p, q *kdtree.Node, limit float64) float64 {
	switch {
	case !r.sq:
		return r.Metric.NodeLB(p, q)
	case r.cd == nil:
		return geometry.SqDistBoxesBounded(p.Box, q.Box, limit)
	}
	return kdtree.SqMutNodeLBBounded(p, q, limit)
}

// ub upper-bounds the window-space weight of every edge between p and q,
// with lb's early-exit contract.
func (r *memoRun) ub(p, q *kdtree.Node, limit float64) float64 {
	switch {
	case !r.sq:
		return r.Metric.NodeUB(p, q)
	case r.cd == nil:
		return geometry.SqMaxDistBoxesBounded(p.Box, q.Box, limit)
	}
	return kdtree.SqMutNodeUBBounded(p, q, limit)
}

// bccp returns the closest pair between p and q with its window-space
// weight.
func (r *memoRun) bccp(p, q *kdtree.Node) kdtree.BCCPResult {
	if !r.sq {
		return kdtree.BCCP(r.Tree, r.Metric, p, q)
	}
	res := kdtree.BCCPSq(r.Tree, r.cd, p, q)
	if r.brute && res.U >= 0 {
		// The float32 traversal returns a rounded weight, but the window
		// ratchets in exact space: an edge whose rounded weight dips below
		// rhoLo would be dropped in this round and pruned in every later
		// one (the pair's bounds never re-admit it), so a heavier edge
		// would silently take its place in the MST. Re-evaluating the one
		// returned pair exactly keeps every edge in the round whose window
		// contains its exact weight.
		res.W = r.exactSqWeight(res.U, res.V)
	}
	return res
}

// edge is the MST edge between kd positions u and v whose window-space
// weight is w.
func (r *memoRun) edge(u, v int32, w float64) Edge {
	if r.sq {
		w = r.Metric.Dist(u, v) // one true-metric evaluation per emitted edge
	}
	return MakeEdge(u, v, w)
}

func (r *memoRun) getRhoNode(a *kdtree.Node, beta int, rho *parallel.AtomicMinFloat64) {
	if a.IsLeaf() || a.Size() <= 1 {
		return
	}
	if a.Comp >= 0 { // whole subtree already in one component
		return
	}
	if a.Size() <= beta { // every descendant pair has cardinality <= beta
		return
	}
	al, ar := r.Tree.LeftOf(a), r.Tree.RightOf(a)
	if a.Size() > spawnSize {
		r.Abort.Check()
		// Subtree traversals become stealable tasks; the split pair stays
		// on the current worker (work-first).
		var g parallel.Group
		g.Spawn(func() { r.getRhoNode(al, beta, rho) })
		g.Spawn(func() { r.getRhoNode(ar, beta, rho) })
		g.Run(func() { r.getRhoPair(al, ar, beta, rho) })
		g.Sync()
		return
	}
	r.getRhoNode(al, beta, rho)
	r.getRhoNode(ar, beta, rho)
	r.getRhoPair(al, ar, beta, rho)
}

// getRhoPair lowers rho to the minimum lower bound over the well-separated,
// not-yet-connected descendant pairs of (p, q) with cardinality greater
// than beta.
func (r *memoRun) getRhoPair(p, q *kdtree.Node, beta int, rho *parallel.AtomicMinFloat64) {
	if connected(p, q) {
		return
	}
	if p.Size()+q.Size() <= beta {
		return // this pair and all of its descendants run this round
	}
	limit := rho.Load()
	lb := r.lb(p, q, limit)
	if lb >= limit {
		return // descendants only have larger lower bounds
	}
	if p.Radius < q.Radius {
		p, q = q, p
	}
	if r.Sep.WellSeparated(p, q) {
		rho.Min(lb)
		return
	}
	if p.IsLeaf() {
		p, q = q, p
	}
	pl, pr := r.Tree.LeftOf(p), r.Tree.RightOf(p)
	if p.Size()+q.Size() > spawnSize {
		r.Abort.Check()
		parallel.Do(
			func() { r.getRhoPair(pl, q, beta, rho) },
			func() { r.getRhoPair(pr, q, beta, rho) },
		)
		return
	}
	r.getRhoPair(pl, q, beta, rho)
	r.getRhoPair(pr, q, beta, rho)
}

// getPairsNode appends to *out the edges of well-separated pairs whose BCCP
// falls in [rhoLo, rhoHi), pruning connected pairs and pairs whose bounds
// place them wholly outside the range (Figure 3), and returns the number of
// BCCPs it computed. Sequential recursion appends in place; at a fork, only
// one branch writes *out and each other branch fills its own buffer,
// appended after the join, and the branches' counts are summed there.
func (r *memoRun) getPairsNode(a *kdtree.Node, beta int, rhoLo, rhoHi float64, out *[]Edge) int64 {
	if a.IsLeaf() || a.Size() <= 1 || a.Comp >= 0 {
		return 0
	}
	al, ar := r.Tree.LeftOf(a), r.Tree.RightOf(a)
	if a.Size() > spawnSize {
		r.Abort.Check()
		var right, mid []Edge
		var calls [3]int64
		var g parallel.Group
		g.Spawn(func() { calls[0] = r.getPairsNode(al, beta, rhoLo, rhoHi, out) })
		g.Spawn(func() { calls[1] = r.getPairsNode(ar, beta, rhoLo, rhoHi, &right) })
		g.Run(func() { calls[2] = r.getPairsPair(al, ar, beta, rhoLo, rhoHi, &mid) })
		g.Sync()
		*out = append(append(*out, right...), mid...)
		return calls[0] + calls[1] + calls[2]
	}
	calls := r.getPairsNode(al, beta, rhoLo, rhoHi, out)
	calls += r.getPairsNode(ar, beta, rhoLo, rhoHi, out)
	return calls + r.getPairsPair(al, ar, beta, rhoLo, rhoHi, out)
}

func (r *memoRun) getPairsPair(p, q *kdtree.Node, beta int, rhoLo, rhoHi float64, out *[]Edge) int64 {
	if connected(p, q) {
		return 0
	}
	if r.lb(p, q, rhoHi) >= rhoHi {
		return 0 // BCCPs of this pair and its descendants are >= rhoHi
	}
	if r.ub(p, q, rhoLo) < rhoLo {
		return 0 // BCCPs of this pair and its descendants are < rhoLo
	}
	if p.Radius < q.Radius {
		p, q = q, p
	}
	if r.Sep.WellSeparated(p, q) {
		res := r.bccp(p, q)
		if res.W >= rhoLo && res.W < rhoHi {
			*out = append(*out, r.edge(res.U, res.V, res.W))
		}
		return 1
	}
	if r.brute && p.Size()+q.Size() <= bruteSize {
		r.brutePairs(p, q, rhoLo, rhoHi, out)
		return 0
	}
	if p.IsLeaf() {
		p, q = q, p
	}
	pl, pr := r.Tree.LeftOf(p), r.Tree.RightOf(p)
	if p.Size()+q.Size() > spawnSize {
		r.Abort.Check()
		var o []Edge
		var calls [2]int64
		parallel.Do(
			func() { calls[0] = r.getPairsPair(pl, q, beta, rhoLo, rhoHi, out) },
			func() { calls[1] = r.getPairsPair(pr, q, beta, rhoLo, rhoHi, &o) },
		)
		*out = append(*out, o...)
		return calls[0] + calls[1]
	}
	calls := r.getPairsPair(pl, q, beta, rhoLo, rhoHi, out)
	return calls + r.getPairsPair(pr, q, beta, rhoLo, rhoHi, out)
}

// spawnSize mirrors the WSPD spawning threshold.
const spawnSize = 1024

// exactSqWeight is the exact squared-space weight of the pair of kd
// positions (u, v): squared Euclidean distance, maxed with the squared
// core distances under mutual reachability.
func (r *memoRun) exactSqWeight(u, v int32) float64 {
	pts := r.Tree.Pts
	w := geometry.SqDistVec(pts.At(int(u)), pts.At(int(v)))
	if r.cd != nil {
		if cu2 := r.cd[u] * r.cd[u]; cu2 > w {
			w = cu2
		}
		if cv2 := r.cd[v] * r.cd[v]; cv2 > w {
			w = cv2
		}
	}
	return w
}

// bruteSize is the combined-cardinality cutoff below which getPairsPair
// stops recursing on non-well-separated pairs and scans the cross product
// directly (float32 mode only).
const bruteSize = 64

// brutePairs replaces the sub-recursion below a small, non-separated node
// pair with one pass over the two kd-contiguous row ranges, emitting every
// cross-component edge whose squared weight lands in the round's window.
// The recursion would bottom out in singleton pairs — which are always
// well-separated — so its emitted edge set is a subset of this one, and
// Kruskal discards the extra true-weight edges; what the scan saves is the
// O(dim) box-bound evaluation at every intermediate node pair, the
// dominant cost of high-dimensional traversals.
//
// Most scanned pairs weigh rhoHi or more, so the scan stops computing a
// weight as soon as the window has rejected it, cheapest test first: a
// squared core distance at or above rhoHi rejects its whole row or column
// (the weight is at least each term), a row whose point lies rhoHi or more
// from q's box is skipped (each box gap is at most the matching coordinate
// difference), and a pair's distance stops summing once its partial sum
// reaches rhoHi. Partial sums never decrease, so each rejection is exact,
// and a distance that stays below rhoHi is SqDistVec's value bit for bit:
// window tests stay in exact float64, and the emitted edges, their order
// and the round structure are those of the full scan.
func (r *memoRun) brutePairs(p, q *kdtree.Node, rhoLo, rhoHi float64, out *[]Edge) {
	pts := r.Tree.Pts
	for u := p.Lo; u < p.Hi; u++ {
		var cu2 float64
		if r.cd != nil {
			if cu2 = r.cd[u] * r.cd[u]; cu2 >= rhoHi {
				continue
			}
		}
		uc, cu := pts.At(int(u)), r.comp[u]
		if geometry.SqDistPointBoxBounded(uc, q.Box, rhoHi) >= rhoHi {
			continue
		}
		for v := q.Lo; v < q.Hi; v++ {
			if r.comp[v] == cu {
				continue
			}
			var cv2 float64
			if r.cd != nil {
				if cv2 = r.cd[v] * r.cd[v]; cv2 >= rhoHi {
					continue
				}
			}
			w := geometry.SqDistVecBounded(uc, pts.At(int(v)), rhoHi)
			if w >= rhoHi {
				continue
			}
			w = max(w, cu2, cv2)
			if w >= rhoLo {
				*out = append(*out, r.edge(u, v, w))
			}
		}
	}
}
