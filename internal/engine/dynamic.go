package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"parclust/internal/geometry"
	"parclust/internal/kdtree"
)

// The dynamic layer turns the engine's immutable point set into a mutable
// one without giving up the staged pipeline's byte-for-byte reproducibility:
//
//   - Inserted rows land in a small overlay buffer that point queries
//     (k-NN, range) merge with the base tree by brute-force scan.
//   - Deleted points become tombstones: a bitmap over the base tree that
//     leaf scans skip, plus removal from the overlay.
//   - Every surviving point keeps a stable external id (assigned
//     monotonically, starting at 0 for the initial rows); the public query
//     id space is "dense" — position in the ascending external-id order —
//     which is exactly the id space of an Index freshly built over the
//     surviving rows in that order.
//   - Global stages (core distances, MSTs, hierarchies, DBSCAN, OPTICS)
//     never run over the patched view: the first such query after a
//     mutation compacts — rebuilds the canonical base from the surviving
//     rows in external-id order with the very same build path a fresh
//     engine uses — so their outputs are byte-identical to a fresh build by
//     construction. Compaction also triggers once the overlay+tombstone
//     backlog crosses a fraction of the live set, amortizing rebuild cost
//     over many point-query-only mutations.
//
// A mutation bumps the engine's mutation epoch (visible before the mutation
// is applied, so a server can detect queries racing a bump mid-flight) and
// invalidates only the downstream stages: core distances, MSTs,
// hierarchies, and their cut-result caches are dropped; the tree survives
// as the base for patched point queries until compaction replaces it.
//
// Concurrency: dynState is immutable after publication and replaced
// wholesale — readers snapshot (tree, dyn) under one regMu read-lock and
// work on a coherent pair. Mutations serialize with stage builds on buildMu
// and publish under regMu, preserving the existing locking discipline.

// ErrUnknownID is wrapped by Delete when an external id does not name a
// live point (never assigned, or already deleted).
var ErrUnknownID = errors.New("engine: unknown or deleted point id")

// compactDen is the denominator of the backlog threshold: a mutation
// compacts eagerly once overlay+tombstone count exceeds live/compactDen
// (25%), bounding both point-query overhead (overlay scans, dead leaf
// slots) and memory (tombstoned rows) to a constant factor.
const compactDen = 4

// dynState is one immutable snapshot of the mutation state. All slices are
// shared structurally between snapshots and must never be written after
// publication.
type dynState struct {
	// baseExt maps base original ids (the tree's id space) to external ids;
	// nil means identity (a never-compacted initial base). Always ascending.
	baseExt []int64
	// tomb marks deleted base original ids; nil means none. nTomb counts
	// the marks.
	tomb  []bool
	nTomb int
	// ov holds the overlay rows (prepared coordinates, row-major) and ovExt
	// their external ids, ascending.
	ov    []float64
	ovExt []int64
	// nextID is the next external id to assign.
	nextID int64
	// dirty reports that the base tree does not equal the live set (overlay
	// or tombstones exist).
	dirty bool

	// Derived by reindex — the dense id space:
	// ids[dense] = external id (ascending); denseOfBase[b] = dense id of
	// base original id b (-1 if tombstoned); denseOfOv[i] = dense id of
	// overlay row i; srcOfDense[dense] = base original id if >= 0, else
	// -(overlay index + 1).
	ids         []int64
	denseOfBase []int32
	denseOfOv   []int32
	srcOfDense  []int32
}

// reindex rebuilds the dense-id mapping by merging the (ascending) live
// base external ids with the (ascending) overlay external ids.
func (d *dynState) reindex(baseN int) {
	live := baseN - d.nTomb + len(d.ovExt)
	d.ids = make([]int64, 0, live)
	d.srcOfDense = make([]int32, 0, live)
	d.denseOfBase = make([]int32, baseN)
	d.denseOfOv = make([]int32, len(d.ovExt))
	bi, oi := 0, 0
	for bi < baseN || oi < len(d.ovExt) {
		for bi < baseN && d.tomb != nil && d.tomb[bi] {
			d.denseOfBase[bi] = -1
			bi++
		}
		if bi >= baseN && oi >= len(d.ovExt) {
			break
		}
		takeBase := bi < baseN
		if takeBase && oi < len(d.ovExt) && d.ovExt[oi] < d.extOfBase(bi) {
			takeBase = false
		}
		dense := int32(len(d.ids))
		if takeBase {
			d.ids = append(d.ids, d.extOfBase(bi))
			d.denseOfBase[bi] = dense
			d.srcOfDense = append(d.srcOfDense, int32(bi))
			bi++
		} else {
			d.ids = append(d.ids, d.ovExt[oi])
			d.denseOfOv[oi] = dense
			d.srcOfDense = append(d.srcOfDense, -int32(oi)-1)
			oi++
		}
	}
}

func (d *dynState) extOfBase(b int) int64 {
	if d.baseExt == nil {
		return int64(b)
	}
	return d.baseExt[b]
}

// ovRow returns overlay row i.
func (d *dynState) ovRow(i, dim int) []float64 {
	return d.ov[i*dim : (i+1)*dim : (i+1)*dim]
}

// liveLen is the number of live points in this snapshot.
func (d *dynState) liveLen() int { return len(d.ids) }

// backlog is the mutation debt compaction clears: overlay rows plus
// tombstoned base rows.
func (d *dynState) backlog() int { return len(d.ovExt) + d.nTomb }

// DynInfo is a snapshot of the engine's dynamic-layer occupancy.
type DynInfo struct {
	// Live is the number of live (queryable) points.
	Live int
	// Overlay is the number of inserted rows not yet compacted into the
	// base tree; Tombstones the number of deleted base rows not yet
	// reclaimed.
	Overlay    int
	Tombstones int
	// Dirty reports that the base tree differs from the live set (a global
	// stage query or snapshot write will compact first).
	Dirty bool
}

// DynInfo returns the engine's current dynamic-layer occupancy.
func (e *Engine) DynInfo() DynInfo {
	e.regMu.RLock()
	d := e.dyn
	n := e.Pts.N
	e.regMu.RUnlock()
	if d == nil {
		return DynInfo{Live: n}
	}
	return DynInfo{Live: d.liveLen(), Overlay: len(d.ovExt), Tombstones: d.nTomb, Dirty: d.dirty}
}

// LiveN returns the number of live points: the base set plus overlay
// inserts, minus tombstoned deletes. Equal to Pts.N on a clean engine.
func (e *Engine) LiveN() int {
	e.regMu.RLock()
	defer e.regMu.RUnlock()
	if e.dyn != nil {
		return e.dyn.liveLen()
	}
	return e.Pts.N
}

// Dim returns the dimensionality of the engine's points.
func (e *Engine) Dim() int {
	e.regMu.RLock()
	defer e.regMu.RUnlock()
	return e.Pts.Dim
}

// Dirty reports whether the base tree differs from the live point set
// (uncompacted inserts or deletes exist). A dirty engine compacts before
// any global stage runs or a snapshot is written.
func (e *Engine) Dirty() bool {
	e.regMu.RLock()
	defer e.regMu.RUnlock()
	return e.dyn != nil && e.dyn.dirty
}

// MutationEpoch returns the engine's mutation epoch: a counter bumped at
// the start of every Insert/Delete, before the mutation is applied. A
// server that captures the epoch when a query begins and compares on
// completion detects responses that raced a mutation mid-flight.
func (e *Engine) MutationEpoch() uint64 { return e.epoch.Load() }

// ExternalIDs returns a copy of the live external ids in dense-id order
// (ascending): element q is the external id of the point that dense
// queries address as q.
func (e *Engine) ExternalIDs() []int64 {
	e.regMu.RLock()
	d := e.dyn
	n := e.Pts.N
	e.regMu.RUnlock()
	if d == nil {
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = int64(i)
		}
		return ids
	}
	return append([]int64(nil), d.ids...)
}

// dynLocked returns the current dynState, materializing the clean identity
// state on first mutation. buildMu must be held.
func (e *Engine) dynLocked() *dynState {
	if e.dyn != nil {
		return e.dyn
	}
	d := &dynState{nextID: int64(e.Pts.N)}
	d.reindex(e.Pts.N)
	return d
}

// Insert appends the prepared rows (validated and kernel-normalized by the
// caller; dimensions must match) as live points and returns their external
// ids. The rows are copied into the overlay; downstream stages (core
// distances, MSTs, hierarchies, cut caches) are invalidated, the base tree
// survives for patched point queries, and the engine compacts eagerly when
// the mutation backlog crosses the threshold (always, on float32 engines).
func (e *Engine) Insert(rows geometry.Points) ([]int64, error) {
	if rows.N == 0 {
		return nil, nil
	}
	if rows.Dim != e.Dim() {
		return nil, fmt.Errorf("engine: insert dimension %d, want %d", rows.Dim, e.Dim())
	}
	e.epoch.Add(1)
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	old := e.dynLocked()
	nd := &dynState{
		baseExt: old.baseExt,
		tomb:    old.tomb,
		nTomb:   old.nTomb,
		ov:      append(append(make([]float64, 0, len(old.ov)+len(rows.Data)), old.ov...), rows.Data...),
		ovExt:   append(make([]int64, 0, len(old.ovExt)+rows.N), old.ovExt...),
		nextID:  old.nextID + int64(rows.N),
	}
	ids := make([]int64, rows.N)
	for i := range ids {
		ids[i] = old.nextID + int64(i)
		nd.ovExt = append(nd.ovExt, ids[i])
	}
	nd.dirty = true
	nd.reindex(e.Pts.N)
	e.publishMutationLocked(nd)
	e.maybeCompactLocked(nd)
	return ids, nil
}

// Delete removes the points with the given external ids. Validation is
// all-or-nothing: if any id does not name a live point the engine is
// unchanged and the error wraps ErrUnknownID. Overlay points are dropped
// outright; base points become tombstones skipped by every query until
// compaction reclaims them.
func (e *Engine) Delete(ids []int64) error {
	if len(ids) == 0 {
		return nil
	}
	e.epoch.Add(1)
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	old := e.dynLocked()
	baseN := e.Pts.N
	dim := e.Pts.Dim

	// Validate every id against the current snapshot before changing
	// anything; classify into base tombstones and overlay drops.
	tombAdd := make([]int32, 0, len(ids))
	ovDrop := make(map[int]bool)
	seen := make(map[int64]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			return fmt.Errorf("%w: id %d repeated in delete batch", ErrUnknownID, id)
		}
		seen[id] = true
		if b, ok := old.findBase(id, baseN); ok {
			if old.tomb != nil && old.tomb[b] {
				return fmt.Errorf("%w: id %d", ErrUnknownID, id)
			}
			tombAdd = append(tombAdd, int32(b))
			continue
		}
		if oi, ok := old.findOverlay(id); ok {
			ovDrop[oi] = true
			continue
		}
		return fmt.Errorf("%w: id %d", ErrUnknownID, id)
	}

	nd := &dynState{
		baseExt: old.baseExt,
		tomb:    old.tomb,
		nTomb:   old.nTomb,
		ov:      old.ov,
		ovExt:   old.ovExt,
		nextID:  old.nextID,
	}
	if len(tombAdd) > 0 {
		tomb := make([]bool, baseN)
		copy(tomb, old.tomb)
		for _, b := range tombAdd {
			tomb[b] = true
		}
		nd.tomb = tomb
		nd.nTomb = old.nTomb + len(tombAdd)
	}
	if len(ovDrop) > 0 {
		ov := make([]float64, 0, len(old.ov))
		ovExt := make([]int64, 0, len(old.ovExt))
		for i, ext := range old.ovExt {
			if ovDrop[i] {
				continue
			}
			ov = append(ov, old.ovRow(i, dim)...)
			ovExt = append(ovExt, ext)
		}
		nd.ov, nd.ovExt = ov, ovExt
	}
	nd.dirty = len(nd.ovExt) > 0 || nd.nTomb > 0
	nd.reindex(baseN)
	e.publishMutationLocked(nd)
	e.maybeCompactLocked(nd)
	return nil
}

// findBase locates external id as a base original id (binary search over
// the ascending baseExt map, identity when nil).
func (d *dynState) findBase(id int64, baseN int) (int, bool) {
	if d.baseExt == nil {
		if id >= 0 && id < int64(baseN) {
			return int(id), true
		}
		return 0, false
	}
	i := sort.Search(len(d.baseExt), func(i int) bool { return d.baseExt[i] >= id })
	if i < len(d.baseExt) && d.baseExt[i] == id {
		return i, true
	}
	return 0, false
}

// findOverlay locates external id as an overlay row index.
func (d *dynState) findOverlay(id int64) (int, bool) {
	i := sort.Search(len(d.ovExt), func(i int) bool { return d.ovExt[i] >= id })
	if i < len(d.ovExt) && d.ovExt[i] == id {
		return i, true
	}
	return 0, false
}

// publishMutationLocked installs the new dynamic state and drops every
// downstream stage: core distances, MSTs, hierarchies, and the hierarchy
// stages' cut-result caches (their resident bytes are refunded). The tree
// is kept — point queries patch around the mutation until compaction.
// buildMu must be held.
func (e *Engine) publishMutationLocked(nd *dynState) {
	e.regMu.Lock()
	e.dyn = nd
	hiers := e.hiers
	e.cores = make(map[int][]float64)
	e.msts = make(map[StageKey]mstStage)
	e.hiers = make(map[StageKey]*HierStage)
	e.regMu.Unlock()
	for _, st := range hiers {
		st.dropCuts()
	}
	e.annotated = 0
	e.c.treePatches.Add(1)
}

// dropCuts empties the stage's cut-result cache and refunds its resident
// bytes. Goroutines still holding the stage may repopulate the cache
// (bounded by maxCutResults); the stage itself is unreachable for new
// queries once dropped from the registry.
func (h *HierStage) dropCuts() {
	h.cutMu.Lock()
	var freed int64
	for _, c := range h.cuts {
		freed += cutResultBytes(c)
	}
	h.cuts = nil
	h.cutOrder = nil
	h.cutMu.Unlock()
	if h.eng != nil {
		h.eng.cutBytes.Add(-freed)
	}
}

// maybeCompactLocked compacts when the backlog crossed the amortization
// threshold — or immediately on float32 engines, whose SoA panels are
// rebuilt with the tree (the overlay has no float32 representation).
// buildMu must be held.
func (e *Engine) maybeCompactLocked(nd *dynState) {
	if !nd.dirty {
		return
	}
	if e.f32 || nd.backlog()*compactDen > nd.liveLen() {
		// A mutation's compaction belongs to no flight: nothing can abort
		// it, and no stage keeps its report.
		e.compactLocked(&exec{})
	}
}

// compactLocked rebuilds the canonical base: the surviving rows are
// materialized in external-id (= dense-id) order and the tree is rebuilt
// with the exact build path a fresh engine uses, so every downstream stage
// output over the compacted base is byte-identical to a fresh build over
// the equivalent point set. Publishes points, tree, and the clean dynamic
// state together; an abort mid-build publishes nothing. buildMu must be
// held.
func (e *Engine) compactLocked(x *exec) {
	d := e.dyn
	if d == nil || !d.dirty {
		return
	}
	dim := e.Pts.Dim
	m := d.liveLen()
	np := geometry.NewPoints(m, dim)
	for dense, src := range d.srcOfDense {
		dst := np.Data[dense*dim : (dense+1)*dim]
		if src >= 0 {
			copy(dst, e.Pts.At(int(src)))
		} else {
			copy(dst, d.ovRow(int(-src-1), dim))
		}
	}
	t := e.buildTreeLocked(x, np)
	nd := &dynState{baseExt: d.ids, nextID: d.nextID}
	nd.reindex(m)
	e.regMu.Lock()
	e.Pts = np
	e.tree = t
	e.dyn = nd
	e.regMu.Unlock()
	e.annotated = 0
	e.c.compactions.Add(1)
}

// canonLocked returns the canonical tree: it compacts first when the
// engine is dirty, so the returned tree covers exactly the live points in
// dense-id order. Global stages and snapshot writes use this instead of
// treeLocked. buildMu must be held.
func (e *Engine) canonLocked(x *exec) *kdtree.Tree {
	e.compactLocked(x)
	return e.treeLocked(x)
}

// liveNLocked is LiveN under buildMu (no registry lock needed: dyn is only
// replaced under buildMu).
func (e *Engine) liveNLocked() int {
	if e.dyn != nil {
		return e.dyn.liveLen()
	}
	return e.Pts.N
}

// CanonTree returns the canonical tree over the live points, compacting a
// dirty engine first (under the tree singleflight, so concurrent callers
// coalesce). Queries that must reflect the full live set — DBSCAN, OPTICS,
// border attachment — use this; patched point queries use the live entry
// points below instead.
func (e *Engine) CanonTree(ctx context.Context) (*kdtree.Tree, error) {
	var t *kdtree.Tree
	err := e.stages.tree.fetch(ctx, e, StageKey{}, func() bool {
		e.regMu.RLock()
		t = e.tree
		if d := e.dyn; d != nil && d.dirty {
			t = nil
		}
		e.regMu.RUnlock()
		return t != nil
	}, func(x *exec) { e.canonLocked(x) })
	return t, err
}

// Compact forces a dirty engine into its canonical form (see canonLocked);
// a clean engine returns immediately. Snapshot writers call this so the
// encoded base equals the live set.
func (e *Engine) Compact(ctx context.Context) error {
	if !e.Dirty() {
		return nil
	}
	_, err := e.CanonTree(ctx)
	return err
}

// liveView snapshots a coherent (tree, dyn) pair, building the tree if
// needed. dyn may be nil (never mutated).
func (e *Engine) liveView(ctx context.Context) (*kdtree.Tree, *dynState, error) {
	for {
		e.regMu.RLock()
		t, d := e.tree, e.dyn
		e.regMu.RUnlock()
		if t != nil {
			return t, d, nil
		}
		if _, err := e.Tree(ctx); err != nil {
			return nil, nil, err
		}
	}
}

// liveQC resolves a dense id to its coordinate row within the given view:
// the tree's kd-ordered copy for base points, the overlay for inserts.
func liveQC(t *kdtree.Tree, d *dynState, q int) []float64 {
	if d == nil || d.srcOfDense == nil {
		return t.Pts.At(int(t.Inv[q]))
	}
	src := d.srcOfDense[q]
	if src >= 0 {
		return t.Pts.At(int(t.Inv[src]))
	}
	return d.ovRow(int(-src-1), t.Pts.Dim)
}

// KNNLive returns the k nearest live points to the live point with dense id
// q, sorted by increasing tree-metric distance. Equal distances come in a
// deterministic but unspecified order, so q itself is included unless more
// than k live points lie at distance 0 from it. Result ids are dense ids —
// on a clean engine (including after compaction) this is exactly the
// static KNN. A k above the live point count returns every live point.
func (e *Engine) KNNLive(ctx context.Context, q, k int, ws *kdtree.KNNWorkspace) ([]kdtree.Neighbor, error) {
	t, d, err := e.liveView(ctx)
	if err != nil {
		return nil, err
	}
	// The view holds at most its live count of points, so clamping k
	// changes no answer and keeps a huge k from sizing the heap and result.
	if d == nil || !d.dirty {
		return t.KNNInto(int32(q), min(k, t.Pts.N), ws), nil
	}
	k = min(k, d.liveLen())
	qc := liveQC(t, d, q)
	base := t.KNNLiveInto(qc, k, d.tomb, ws)
	// base is sorted by distance, equal distances in the heap's visit
	// order rather than by id; the remap to dense ids keeps that order.
	best := make([]kdtree.Neighbor, 0, k)
	for _, nb := range base {
		best = append(best, kdtree.Neighbor{Idx: d.denseOfBase[nb.Idx], Dist: nb.Dist})
	}
	// Fold each overlay row into the bounded best-k list; most rows fail
	// the cutoff against the current kth neighbor, so this stays O(overlay)
	// instead of sorting every candidate.
	dim := t.Pts.Dim
	for i := range d.ovExt {
		nb := kdtree.Neighbor{Idx: d.denseOfOv[i], Dist: t.DistCoords(qc, d.ovRow(i, dim))}
		if len(best) == k {
			w := best[k-1]
			if nb.Dist > w.Dist || (nb.Dist == w.Dist && nb.Idx >= w.Idx) {
				continue
			}
			best = best[:k-1]
		}
		j := len(best)
		best = append(best, nb)
		for j > 0 && (best[j-1].Dist > nb.Dist ||
			(best[j-1].Dist == nb.Dist && best[j-1].Idx > nb.Idx)) {
			best[j] = best[j-1]
			j--
		}
		best[j] = nb
	}
	return best, nil
}

// RangeLive returns the dense ids of all live points within tree-metric
// distance r of the live point with dense id q (including q itself), in no
// particular order: tree order on a clean engine, ascending dense ids on a
// mutated one.
func (e *Engine) RangeLive(ctx context.Context, q int, r float64) ([]int32, error) {
	t, d, err := e.liveView(ctx)
	if err != nil {
		return nil, err
	}
	if d == nil || !d.dirty {
		return t.RangeQuery(int32(q), r), nil
	}
	qc := liveQC(t, d, q)
	base := t.RangeQueryLiveAppend(qc, r, d.tomb, nil)
	out := make([]int32, 0, len(base))
	for _, b := range base {
		out = append(out, d.denseOfBase[b])
	}
	dim := t.Pts.Dim
	for i := range d.ovExt {
		if t.DistCoords(qc, d.ovRow(i, dim)) <= r {
			out = append(out, d.denseOfOv[i])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// RangeCountLive returns the number of live points within tree-metric
// distance r of the live point with dense id q (including q itself).
func (e *Engine) RangeCountLive(ctx context.Context, q int, r float64) (int, error) {
	t, d, err := e.liveView(ctx)
	if err != nil {
		return 0, err
	}
	if d == nil || !d.dirty {
		return t.RangeCount(int32(q), r), nil
	}
	qc := liveQC(t, d, q)
	cnt := t.RangeCountLive(qc, r, d.tomb)
	dim := t.Pts.Dim
	for i := range d.ovExt {
		if t.DistCoords(qc, d.ovRow(i, dim)) <= r {
			cnt++
		}
	}
	return cnt, nil
}
