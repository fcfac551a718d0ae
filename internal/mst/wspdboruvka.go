package mst

import (
	"sync/atomic"
	"time"

	"parclust/internal/parallel"
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
	ws := cfg.WS
	if ws == nil {
		ws = NewWorkspace()
	}
	r := newWSPDBoruvkaRun(cfg, ws, decompose(cfg, nil))
	for r.round() {
	}
	out := ws.finish(t.Orig)
	parallel.Sort(out, Less)
	return out
}

// wspdBoruvkaRun carries one WSPD-Borůvka execution: the surviving pairs,
// the dense reduction slots, and the pre-built round bodies.
type wspdBoruvkaRun struct {
	cfg   Config
	ws    *Workspace
	pairs []pair

	bccpBody   func(lo, hi int)
	reduceBody func(lo, hi int)
}

func newWSPDBoruvkaRun(cfg Config, ws *Workspace, pairs []pair) *wspdBoruvkaRun {
	ws.grow(cfg.Tree.Pts.N)
	r := &wspdBoruvkaRun{cfg: cfg, ws: ws, pairs: pairs}
	r.bccpBody = func(lo, hi int) { bccpChunk(cfg, r.pairs, lo, hi) }
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
func casMinPair(best []int32, pairs []pair, c, i int32) {
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
