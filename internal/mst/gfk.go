package mst

import (
	"fmt"
	"math"
	"time"

	"parclust/internal/kdtree"
	"parclust/internal/parallel"
	"parclust/internal/wspd"
)

// maxRounds caps filter-Kruskal rounds; beta doubles each round so any
// legitimate run finishes in O(log n) rounds. Exceeding the cap means an
// internal invariant is broken.
const maxRounds = 200

// pair is a WSPD pair with its lazily computed, cached BCCP. Pairs are
// stored by value in flat slices (no per-pair heap allocation); GFK rounds
// shuffle them between the workspace's two buffers with stable in-place
// partitions, and WSPD-Borůvka rounds compact them in place.
type pair struct {
	a, b *kdtree.Node
	res  kdtree.BCCPResult // res.U < 0 when not yet computed
}

func (p *pair) card() int { return p.a.Size() + p.b.Size() }

func (p *pair) edge() Edge { return MakeEdge(p.res.U, p.res.V, p.res.W) }

// decompose materializes the full WSPD of cfg.Tree as pairs with no BCCP
// computed yet, into dst when it has room, recording the WSPD phase and the
// pair counts.
func decompose(cfg Config, dst []pair) []pair {
	cfg.Stats.Time(PhaseWSPD, func() {
		raw := wspd.Decompose(cfg.Tree, cfg.Sep, cfg.Abort)
		if cap(dst) < len(raw) {
			dst = make([]pair, len(raw))
		}
		dst = dst[:len(raw)]
		parallel.For(len(raw), 0, func(i int) {
			dst[i] = pair{a: raw[i].A, b: raw[i].B, res: kdtree.BCCPResult{U: -1, V: -1, W: math.NaN()}}
		})
	})
	cfg.Stats.AddPairs(int64(len(dst)))
	cfg.Stats.NotePeak(int64(len(dst)))
	return dst
}

// bccpChunk computes and caches the BCCP of every pair of ps[lo:hi] that
// has none yet: the body of both BCCP rounds' parallel loops.
func bccpChunk(cfg Config, ps []pair, lo, hi int) {
	cfg.Abort.Check()
	var calls int64
	for i := lo; i < hi; i++ {
		if ps[i].res.U < 0 {
			ps[i].res = kdtree.BCCP(cfg.Tree, cfg.Metric, ps[i].a, ps[i].b)
			calls++
		}
	}
	cfg.Stats.AddBCCP(calls)
}

func connected(a, b *kdtree.Node) bool { return a.Comp >= 0 && a.Comp == b.Comp }

// GFK is the parallel GeoFilterKruskal algorithm (Algorithm 2). It
// materializes the full WSPD once, then proceeds in rounds: pairs with
// cardinality at most beta whose BCCP is no heavier than the lightest
// possible edge of the remaining pairs are resolved with KruskalBatch
// (sequential Filter-Kruskal, in place); pairs whose endpoints become
// connected are filtered out; beta doubles. Steady-state rounds reuse the
// workspace buffers; the only per-round allocations are the small
// constant from the parallel loop and reduction scaffolding (pinned by
// TestGFKRoundAllocs). Returned edges carry original ids in Kruskal
// acceptance order.
func GFK(cfg Config) []Edge {
	t := cfg.Tree
	n := t.Pts.N
	if n <= 1 {
		return nil
	}
	ws := cfg.WS
	if ws == nil {
		ws = NewWorkspace()
	}
	ws.pairs = decompose(cfg, ws.pairs)
	ws.grow(n)
	ws.growPairs(len(ws.pairs))

	r := newGFKRun(cfg, ws, ws.pairs)
	beta := 2
	for round := 0; len(ws.out) < n-1; round++ {
		if round >= roundCap(cfg, n) {
			panic(fmt.Sprintf("mst: GFK exceeded %d rounds (n=%d, |S|=%d, |out|=%d)", maxRounds, n, len(r.s), len(ws.out)))
		}
		r.round(beta)
		if len(r.s) == 0 && len(ws.out) < n-1 {
			panic("mst: GFK ran out of pairs before completing the MST")
		}
		beta = nextBeta(cfg, beta)
	}
	return ws.finish(t.Orig)
}

// gfkRun is one GFK execution over the workspace's ping-pong pair buffers.
type gfkRun struct {
	cfg Config
	ws  *Workspace
	s   []pair // surviving pairs, prefix of ws.pairs
	su  []pair // large-cardinality side of the current split (ws.scratch)

	bccpBody func(lo, hi int)
	rhoBody  func(i int) float64
}

func newGFKRun(cfg Config, ws *Workspace, s []pair) *gfkRun {
	r := &gfkRun{cfg: cfg, ws: ws, s: s}
	r.bccpBody = func(lo, hi int) { bccpChunk(cfg, r.s, lo, hi) }
	r.rhoBody = func(i int) float64 {
		return cfg.Metric.NodeLB(r.su[i].a, r.su[i].b)
	}
	return r
}

func (r *gfkRun) round(beta int) {
	cfg, ws := r.cfg, r.ws
	cfg.Abort.Check()
	cfg.Stats.AddRound()

	// Line 4: stable partition by cardinality — small pairs stay in the
	// main buffer, large pairs move to the scratch buffer.
	wsm, wsc := 0, 0
	for i := range r.s {
		if r.s[i].card() <= beta {
			r.s[wsm] = r.s[i]
			wsm++
		} else {
			ws.scratch[wsc] = r.s[i]
			wsc++
		}
	}
	sl := r.s[:wsm]
	r.su = ws.scratch[:wsc]

	// Line 5: rho_hi lower-bounds every edge the large pairs can produce.
	rhoHi := math.Inf(1)
	if len(r.su) > 0 {
		_, rhoHi = parallel.ReduceMin(len(r.su), 0, r.rhoBody)
	}

	// Line 6: compute (and cache) BCCPs of the small pairs, then feed the
	// edges of those no heavier than rho_hi to Kruskal, compacting the
	// heavier remainder (S_l2) in place.
	r.s = sl // bccpBody indexes r.s
	start := time.Now()
	parallel.ForRange(len(sl), 4, r.bccpBody)
	cfg.Stats.AddPhase(PhaseBCCP, time.Since(start))

	batch := ws.batch[:0]
	keep := 0
	for i := range sl {
		if sl[i].res.W <= rhoHi {
			batch = append(batch, MakeEdge(sl[i].res.U, sl[i].res.V, sl[i].res.W))
		} else {
			sl[keep] = sl[i]
			keep++
		}
	}
	ws.batch = batch
	sl2 := sl[:keep]

	// Lines 7-8: Kruskal on the batch.
	start = time.Now()
	ws.out = KruskalBatch(batch, ws.uf, ws.out)
	cfg.Stats.AddPhase(PhaseKruskal, time.Since(start))

	// Line 9: drop pairs whose sides are now in one component. The
	// survivors of S_l2 and S_u are compacted back into the main buffer.
	cfg.Tree.RefreshComponentsInto(ws.uf, ws.comp)
	w := 0
	main := ws.pairs
	for i := range sl2 {
		if !connected(sl2[i].a, sl2[i].b) {
			main[w] = sl2[i]
			w++
		}
	}
	for i := range r.su {
		if !connected(r.su[i].a, r.su[i].b) {
			main[w] = r.su[i]
			w++
		}
	}
	r.s = main[:w]
	cfg.Stats.NotePeak(int64(w))
}
