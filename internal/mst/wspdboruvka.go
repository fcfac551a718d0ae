package mst

import (
	"math"
	"sync/atomic"
	"time"

	"parclust/internal/kdtree"
	"parclust/internal/parallel"
	"parclust/internal/wspd"
)

// WSPDBoruvka computes the MST with Borůvka rounds over the WSPD's BCCP
// edges, the structure of the paper's Appendix B algorithm: each round,
// every component selects its lightest outgoing BCCP edge and the selected
// edges are merged, so only O(log n) rounds are needed and no global edge
// sort is performed. (Appendix B additionally uses a subquadratic BCCP
// subroutine, which the paper notes is impractical with no implementations;
// here BCCPs are computed exactly and cached, as in the other algorithms.)
//
// Per-component selection runs as a dense write-min reduction into
// workspace arrays and surviving pairs are compacted in place, so
// steady-state rounds allocate nothing (pinned by
// TestWSPDBoruvkaRoundAllocs). The returned edges carry original ids.
func WSPDBoruvka(cfg Config) []Edge {
	t := cfg.Tree
	n := t.Pts.N
	if n <= 1 {
		return nil
	}
	var pairs []wspdPairList
	cfg.Stats.Time(PhaseWSPD, func() {
		pairs = decomposePairs(cfg)
	})
	cfg.Stats.AddPairs(int64(len(pairs)))
	cfg.Stats.NotePeak(int64(len(pairs)))

	ws := cfg.WS
	if ws == nil {
		ws = NewWorkspace()
	}
	r := newWSPDBoruvkaRun(cfg, ws, pairs)
	for r.round() {
	}
	out := ws.finish(t.Orig)
	parallel.Sort(out, Less)
	return out
}

type wspdPairList struct {
	a, b *kdtree.Node
	res  kdtree.BCCPResult
}

func (p *wspdPairList) edge() Edge { return MakeEdge(p.res.U, p.res.V, p.res.W) }

func decomposePairs(cfg Config) []wspdPairList {
	raw := wspd.Decompose(cfg.Tree, cfg.Sep, cfg.Abort)
	out := make([]wspdPairList, len(raw))
	parallel.For(len(raw), 0, func(i int) {
		out[i] = wspdPairList{a: raw[i].A, b: raw[i].B, res: kdtree.BCCPResult{U: -1, V: -1, W: math.NaN()}}
	})
	return out
}

// wspdBoruvkaRun carries one WSPD-Borůvka execution: the surviving pairs,
// the dense reduction slots, and the pre-built round bodies.
type wspdBoruvkaRun struct {
	cfg   Config
	ws    *Workspace
	pairs []wspdPairList

	bccpBody   func(lo, hi int)
	reduceBody func(lo, hi int)
}

func newWSPDBoruvkaRun(cfg Config, ws *Workspace, pairs []wspdPairList) *wspdBoruvkaRun {
	ws.grow(cfg.Tree.Pts.N)
	r := &wspdBoruvkaRun{cfg: cfg, ws: ws, pairs: pairs}
	r.bccpBody = func(lo, hi int) {
		cfg.Abort.Check()
		var calls int64
		for i := lo; i < hi; i++ {
			if r.pairs[i].res.U < 0 {
				r.pairs[i].res = kdtree.BCCP(cfg.Tree, cfg.Metric, r.pairs[i].a, r.pairs[i].b)
				calls++
			}
		}
		cfg.Stats.AddBCCP(calls)
	}
	r.reduceBody = func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := r.pairs[i].edge()
			cu, cv := ws.comp[e.U], ws.comp[e.V]
			if cu == cv {
				continue
			}
			casMinPair(ws.best, r.pairs, cu, int32(i))
			casMinPair(ws.best, r.pairs, cv, int32(i))
		}
	}
	return r
}

// casMinPair write-mins pair index i into component c's slot under the
// edge total order (deterministic for any interleaving).
func casMinPair(best []int32, pairs []wspdPairList, c, i int32) {
	slot := &best[c]
	ei := pairs[i].edge()
	for {
		cur := atomic.LoadInt32(slot)
		if cur >= 0 && !Less(ei, pairs[cur].edge()) {
			return
		}
		if atomic.CompareAndSwapInt32(slot, cur, i) {
			return
		}
	}
}

func (r *wspdBoruvkaRun) round() bool {
	ws := r.ws
	cfg := r.cfg
	if ws.uf.Components() <= 1 {
		return false
	}
	cfg.Abort.Check()
	cfg.Stats.AddRound()
	cfg.Tree.RefreshComponentsInto(ws.uf, ws.comp)

	// Compute (and cache) the BCCP of every surviving pair.
	start := time.Now()
	parallel.ForRange(len(r.pairs), 4, r.bccpBody)
	cfg.Stats.AddPhase(PhaseBCCP, time.Since(start))

	// Per-component lightest outgoing edge via dense write-min, then merge.
	parallel.ForRange(len(r.pairs), 256, r.reduceBody)
	n := cfg.Tree.Pts.N
	merged := false
	for c := 0; c < n; c++ {
		pi := ws.best[c]
		if pi < 0 {
			continue
		}
		ws.best[c] = -1
		e := r.pairs[pi].edge()
		if ws.uf.Union(e.U, e.V) {
			ws.out = append(ws.out, e)
			merged = true
		} else {
			merged = true // duplicate selection still witnesses an outgoing edge
		}
	}
	if !merged {
		panic("mst: WSPDBoruvka stalled before the MST completed")
	}
	// Filter pairs that are now internal to one component, in place.
	cfg.Tree.RefreshComponentsInto(ws.uf, ws.comp)
	w := 0
	for i := range r.pairs {
		if !connected(r.pairs[i].a, r.pairs[i].b) {
			r.pairs[w] = r.pairs[i]
			w++
		}
	}
	r.pairs = r.pairs[:w]
	return true
}
