package mst

import (
	"sync/atomic"
	"time"

	"parclust/internal/parallel"
)

// Boruvka computes the MST under the tree's metric with Borůvka rounds
// over a k-d tree: each round finds, for every point, its nearest point in
// a different union-find component (kdtree.Tree.NearestOutside, which
// prunes subtrees that lie wholly in the point's component), reduces those
// candidates to one lightest outgoing edge per component, and merges. It
// stands in for the dual-tree Borůvka baseline (mlpack) that the paper's
// Table 3 compares against; run with GOMAXPROCS=1 it is the sequential
// baseline, and it parallelizes over points otherwise. Candidate weights
// stay in the tree's comparison space (squared for L2) until an edge is
// accepted, so the selection and its tie-breaking never depend on a sqrt.
//
// Boruvka reads the Tree, Stats, WS and Abort fields of cfg; the metric is
// the tree's own. Abort is polled once per round and once per 32-point
// query chunk. All per-round state lives in the Workspace and the round
// bodies are allocated once up front, so steady-state rounds perform zero
// heap allocations (pinned by TestBoruvkaRoundAllocs). The returned edges
// carry original input ids.
func Boruvka(cfg Config) []Edge {
	n := cfg.Tree.Pts.N
	if n <= 1 {
		return nil
	}
	ws := cfg.WS
	if ws == nil {
		ws = NewWorkspace()
	}
	r := newBoruvkaRun(cfg, ws)
	for r.round() {
	}
	out := ws.finish(cfg.Tree.Orig)
	parallel.Sort(out, Less)
	return out
}

// boruvkaRun is one Borůvka execution: the reusable buffers plus the
// pre-built parallel round bodies (built once so rounds don't allocate
// closures).
type boruvkaRun struct {
	cfg Config
	ws  *Workspace

	queryBody  func(lo, hi int)
	reduceBody func(lo, hi int)
}

func newBoruvkaRun(cfg Config, ws *Workspace) *boruvkaRun {
	t := cfg.Tree
	ws.grow(t.Pts.N)
	r := &boruvkaRun{cfg: cfg, ws: ws}
	r.queryBody = func(lo, hi int) {
		cfg.Abort.Check()
		for i := lo; i < hi; i++ {
			ws.cand[i] = Edge(t.NearestOutside(int32(i), ws.comp))
		}
	}
	r.reduceBody = func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := ws.cand[i]
			if e.U < 0 {
				continue
			}
			casMinEdge(ws.best, ws.cand, ws.comp[i], int32(i))
		}
	}
	return r
}

// casMinEdge write-mins candidate index i into the dense slot of component
// c: the slot converges to the Less-least edge regardless of interleaving,
// keeping rounds deterministic under any schedule.
func casMinEdge(best []int32, cand []Edge, c, i int32) {
	slot := &best[c]
	for {
		cur := atomic.LoadInt32(slot)
		if cur >= 0 && !Less(cand[i], cand[cur]) {
			return
		}
		if atomic.CompareAndSwapInt32(slot, cur, i) {
			return
		}
	}
}

// round runs one Borůvka round; it reports whether more rounds remain.
func (r *boruvkaRun) round() bool {
	ws := r.ws
	if ws.uf.Components() <= 1 {
		return false
	}
	t, stats := r.cfg.Tree, r.cfg.Stats
	r.cfg.Abort.Check()
	stats.AddRound()
	n := t.Pts.N
	start := time.Now()
	t.RefreshComponentsInto(ws.uf, ws.comp)
	stats.AddPhase(PhaseRefresh, time.Since(start))

	start = time.Now()
	parallel.ForRange(n, 32, r.queryBody)
	stats.AddPhase(PhaseQuery, time.Since(start))

	start = time.Now()
	// Reduce candidates to the lightest edge per component, then merge.
	parallel.ForRange(n, 512, r.reduceBody)
	for c := 0; c < n; c++ {
		bi := ws.best[c]
		if bi < 0 {
			continue
		}
		ws.best[c] = -1
		e := ws.cand[bi]
		if ws.uf.Union(e.U, e.V) {
			e.W = t.Finish(e.W)
			ws.out = append(ws.out, e)
		}
	}
	stats.AddPhase(PhaseMerge, time.Since(start))
	return true
}
