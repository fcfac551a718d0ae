package mst

import "parclust/internal/unionfind"

// Workspace holds the reusable per-round buffers of the MST algorithms, so
// no round allocates per point, pair or edge (a steady-state Borůvka round
// allocates nothing at all). A zero Workspace is ready to use; buffers
// grow lazily to the point count and are reused across rounds (and across
// runs when the caller passes the same Workspace through Config.WS). A
// Workspace serves one run at a time.
type Workspace struct {
	uf   *unionfind.UF
	comp []int32 // per-position union-find labels (RefreshComponentsInto)
	cand []Edge  // Borůvka: per-point best outgoing edge
	best []int32 // dense per-component min-reduction slots (candidate index)
	out  []Edge  // accepted MST edges

	batch   []Edge // GFK/MemoGFK: per-round Kruskal batch
	pairs   []pair // GFK: the WSPD's pairs, then the survivors (ping-pong with scratch)
	scratch []pair // GFK: stable-partition scratch
}

// NewWorkspace returns an empty workspace; buffers are sized on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// grow sizes the shared buffers for a run over n points and resets the
// union-find and the reduction slots. A recycled union-find larger than n
// is reset to a logical size of n, so component counting (and the
// Components() <= 1 round-termination checks) see exactly the active
// points.
func (w *Workspace) grow(n int) {
	if w.uf == nil || w.uf.Len() < n {
		w.uf = unionfind.New(n)
	} else {
		w.uf.ResetN(n)
	}
	if cap(w.comp) < n {
		w.comp = make([]int32, n)
		w.cand = make([]Edge, n)
		w.best = make([]int32, n)
	}
	w.comp = w.comp[:n]
	w.cand = w.cand[:n]
	w.best = w.best[:n]
	for i := range w.best {
		w.best[i] = -1
	}
	if cap(w.out) < n {
		w.out = make([]Edge, 0, n)
	}
	w.out = w.out[:0]
}

// growPairs sizes GFK's stable-partition scratch for npairs WSPD pairs
// (decompose sizes the pair buffer itself).
func (w *Workspace) growPairs(npairs int) {
	if cap(w.scratch) < npairs {
		w.scratch = make([]pair, npairs)
	}
	w.scratch = w.scratch[:npairs]
	if w.batch == nil {
		w.batch = make([]Edge, 0, 64)
	}
}

// finish copies the accepted edges out of the workspace (so a reused
// Workspace never aliases a returned result), rewriting endpoints from
// kd-order positions to original ids and re-canonicalizing U < V.
func (w *Workspace) finish(orig []int32) []Edge {
	out := make([]Edge, len(w.out))
	for i, e := range w.out {
		out[i] = MakeEdge(orig[e.U], orig[e.V], e.W)
	}
	return out
}
