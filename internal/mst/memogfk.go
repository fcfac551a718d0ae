package mst

import (
	"fmt"
	"math"

	"parclust/internal/kdtree"
	"parclust/internal/parallel"
)

// MemoGFK is the memory-optimized parallel GeoFilterKruskal (Algorithm 3).
// Instead of materializing the WSPD, each round performs two pruned k-d tree
// traversals: GetRho computes the weight ceiling rho_hi for the round (the
// minimum node-pair lower bound over not-yet-connected well-separated pairs
// with cardinality above beta), and GetPairs retrieves only the pairs whose
// BCCP lands in [rho_lo, rho_hi), feeding their edges to Kruskal. The
// union-find, component labels and the round's edge batch live in the
// reusable workspace: the retrieval appends into the batch in place, and
// only a fork above spawnSize gives a branch its own buffer. Returned
// edges carry original ids in Kruskal acceptance order.
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
	// The two L2-backed metrics take monomorphized traversals with every
	// bound (and the rho_lo/rho_hi window) in squared space; squaring is
	// monotone, so the round structure and retrieved pairs are identical.
	sq := sqConfigFor(cfg)
	if sq != nil {
		// In float32 mode the small-pair scan cutoff replaces the deep tail
		// of the retrieval recursion; it needs the per-position component
		// labels (refreshed into this same array every round).
		if f := t.F32(); f != nil && f.Kern.Sq {
			sq.brute = true
			sq.comp = ws.comp
		}
	}
	beta := 2
	rhoLo := 0.0
	for round := 0; len(ws.out) < n-1; round++ {
		if round >= roundCap(cfg, n) {
			panic(fmt.Sprintf("mst: MemoGFK exceeded %d rounds (n=%d, |out|=%d)", maxRounds, n, len(ws.out)))
		}
		cfg.Abort.Check()
		cfg.Stats.AddRound()
		t.RefreshComponentsInto(ws.uf, ws.comp)

		// Line 4: rho_hi via the first pruned traversal.
		var rhoHi float64
		cfg.Stats.Time("wspd", func() {
			if sq != nil {
				rhoHi = getRhoSq(sq, t.Root, beta)
			} else {
				rhoHi = getRho(cfg, t.Root, beta)
			}
		})

		if rhoHi > rhoLo {
			// Line 5: retrieve only pairs with BCCP in [rho_lo, rho_hi).
			ws.batch = ws.batch[:0]
			cfg.Stats.Time("wspd", func() {
				if sq != nil {
					getPairsNodeSq(sq, t.Root, beta, rhoLo, rhoHi, &ws.batch)
				} else {
					getPairsNode(cfg, t.Root, beta, rhoLo, rhoHi, &ws.batch)
				}
			})
			cfg.Stats.AddPairs(int64(len(ws.batch)))
			cfg.Stats.NotePeak(int64(len(ws.batch)))
			// Lines 6-7.
			cfg.Stats.Time("kruskal", func() {
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

// getRho traverses the implicit WSPD and returns the minimum metric lower
// bound over well-separated, not-yet-connected pairs with cardinality
// greater than beta (+Inf when none exist).
func getRho(cfg Config, root *kdtree.Node, beta int) float64 {
	rho := parallel.NewAtomicMinFloat64(math.Inf(1))
	getRhoNode(cfg, root, beta, rho)
	return rho.Load()
}

func getRhoNode(cfg Config, a *kdtree.Node, beta int, rho *parallel.AtomicMinFloat64) {
	if a.IsLeaf() || a.Size() <= 1 {
		return
	}
	if a.Comp >= 0 { // whole subtree already in one component
		return
	}
	if a.Size() <= beta { // every descendant pair has cardinality <= beta
		return
	}
	al, ar := cfg.Tree.LeftOf(a), cfg.Tree.RightOf(a)
	if a.Size() > spawnSize {
		cfg.Abort.Check()
		// Subtree traversals become stealable tasks; the split pair stays
		// on the current worker (work-first).
		var g parallel.Group
		g.Spawn(func() { getRhoNode(cfg, al, beta, rho) })
		g.Spawn(func() { getRhoNode(cfg, ar, beta, rho) })
		g.Run(func() { getRhoPair(cfg, al, ar, beta, rho) })
		g.Sync()
		return
	}
	getRhoNode(cfg, al, beta, rho)
	getRhoNode(cfg, ar, beta, rho)
	getRhoPair(cfg, al, ar, beta, rho)
}

func getRhoPair(cfg Config, p, q *kdtree.Node, beta int, rho *parallel.AtomicMinFloat64) {
	if connected(p, q) {
		return
	}
	if p.Size()+q.Size() <= beta {
		return // this pair and all of its descendants run this round
	}
	lb := cfg.Metric.NodeLB(p, q)
	if lb >= rho.Load() {
		return // descendants only have larger lower bounds
	}
	if p.Radius < q.Radius {
		p, q = q, p
	}
	if cfg.Sep.WellSeparated(p, q) {
		rho.Min(lb)
		return
	}
	if p.IsLeaf() {
		p, q = q, p
	}
	pl, pr := cfg.Tree.LeftOf(p), cfg.Tree.RightOf(p)
	if p.Size()+q.Size() > spawnSize {
		cfg.Abort.Check()
		parallel.Do(
			func() { getRhoPair(cfg, pl, q, beta, rho) },
			func() { getRhoPair(cfg, pr, q, beta, rho) },
		)
		return
	}
	getRhoPair(cfg, pl, q, beta, rho)
	getRhoPair(cfg, pr, q, beta, rho)
}

// getPairsNode appends to *out the edges of well-separated pairs whose BCCP
// falls in [rhoLo, rhoHi), pruning connected pairs and pairs whose bounds
// place them wholly outside the range (Figure 3). Sequential recursion
// appends in place; at a fork, only one branch writes *out and each other
// branch fills its own buffer, appended after the join.
func getPairsNode(cfg Config, a *kdtree.Node, beta int, rhoLo, rhoHi float64, out *[]Edge) {
	if a.IsLeaf() || a.Size() <= 1 || a.Comp >= 0 {
		return
	}
	al, ar := cfg.Tree.LeftOf(a), cfg.Tree.RightOf(a)
	if a.Size() > spawnSize {
		cfg.Abort.Check()
		var right, mid []Edge
		var g parallel.Group
		g.Spawn(func() { getPairsNode(cfg, al, beta, rhoLo, rhoHi, out) })
		g.Spawn(func() { getPairsNode(cfg, ar, beta, rhoLo, rhoHi, &right) })
		g.Run(func() { getPairsPair(cfg, al, ar, beta, rhoLo, rhoHi, &mid) })
		g.Sync()
		*out = append(append(*out, right...), mid...)
		return
	}
	getPairsNode(cfg, al, beta, rhoLo, rhoHi, out)
	getPairsNode(cfg, ar, beta, rhoLo, rhoHi, out)
	getPairsPair(cfg, al, ar, beta, rhoLo, rhoHi, out)
}

func getPairsPair(cfg Config, p, q *kdtree.Node, beta int, rhoLo, rhoHi float64, out *[]Edge) {
	if connected(p, q) {
		return
	}
	if cfg.Metric.NodeLB(p, q) >= rhoHi {
		return // BCCPs of this pair and its descendants are >= rhoHi
	}
	if cfg.Metric.NodeUB(p, q) < rhoLo {
		return // BCCPs of this pair and its descendants are < rhoLo
	}
	if p.Radius < q.Radius {
		p, q = q, p
	}
	if cfg.Sep.WellSeparated(p, q) {
		res := kdtree.BCCP(cfg.Tree, cfg.Metric, p, q)
		cfg.Stats.AddBCCP(1)
		if res.W >= rhoLo && res.W < rhoHi {
			*out = append(*out, MakeEdge(res.U, res.V, res.W))
		}
		return
	}
	if p.IsLeaf() {
		p, q = q, p
	}
	pl, pr := cfg.Tree.LeftOf(p), cfg.Tree.RightOf(p)
	if p.Size()+q.Size() > spawnSize {
		cfg.Abort.Check()
		var r []Edge
		parallel.Do(
			func() { getPairsPair(cfg, pl, q, beta, rhoLo, rhoHi, out) },
			func() { getPairsPair(cfg, pr, q, beta, rhoLo, rhoHi, &r) },
		)
		*out = append(*out, r...)
		return
	}
	getPairsPair(cfg, pl, q, beta, rhoLo, rhoHi, out)
	getPairsPair(cfg, pr, q, beta, rhoLo, rhoHi, out)
}

// spawnSize mirrors the WSPD spawning threshold.
const spawnSize = 1024
