package parclust

import (
	"fmt"

	"parclust/internal/engine"
	"parclust/internal/metric"
)

// Incremental updates: an Index absorbs inserts and deletes without full
// rebuilds. Inserted rows land in a brute-force-scanned overlay merged into
// every point query; deletes become tombstones the tree's leaf scans skip.
// Global stages (HDBSCAN*, EMST, core distances, DBSCAN, OPTICS) compact
// first — the live rows are rebuilt into a canonical base with the same
// build path a fresh Index uses — so their results are byte-identical to an
// Index freshly constructed over the surviving points. Compaction also
// triggers automatically once the mutation backlog exceeds 25% of the live
// set, amortizing rebuild cost across many mutations.
//
// # Id spaces
//
// Every point has a stable external id, assigned monotonically: the initial
// rows get 0..n-1, inserts continue from there, and ids are never reused.
// Insert returns the assigned ids; Delete takes them. Query APIs (KNN,
// RangeQuery, labels, MST edges) keep using dense ids — positions in the
// ascending external-id order — which is exactly the id space of a fresh
// Index built over the surviving rows, preserving the byte-identity
// contract. ExternalIDs maps dense positions back to external ids.
//
// # Epochs
//
// Every mutation bumps the Index's mutation epoch before it is applied.
// Servers capture the epoch when a query starts and compare on completion
// to detect responses that raced a mutation mid-flight (parclustd answers
// 409 Conflict on such races).

// ErrUnknownID is wrapped by Delete when an id does not name a live point
// (never assigned, already deleted, or repeated within the batch).
var ErrUnknownID = engine.ErrUnknownID

// Insert appends rows as new live points and returns their external ids
// (monotonic, never reused). The rows are validated like NewIndex input —
// finite coordinates, matching dimension, the float64 magnitude bound of
// the metric (see NewIndex), the float32 one under WithFloat32 — and copied,
// so the caller's buffer is not retained. The mutation invalidates
// downstream stages (core distances, MSTs, hierarchies, cut caches) but
// keeps the tree: point queries merge the overlay until the Index compacts.
func (ix *Index) Insert(rows Points) ([]int64, error) {
	if rows.N == 0 {
		return nil, nil
	}
	if rows.Dim != ix.Dim() {
		return nil, fmt.Errorf("parclust: insert dimension %d, want %d", rows.Dim, ix.Dim())
	}
	prepared, _, err := prepareMetric(rows, ix.metric)
	if err != nil {
		return nil, err
	}
	if ix.metric != MetricAngular {
		// prepareMetric copies only under the angular kernel; the engine
		// retains the rows, so always hand it a private copy.
		prepared = Points{Data: append([]float64(nil), rows.Data...), N: rows.N, Dim: rows.Dim}
	}
	if ix.eng.Float32() {
		if err := metric.ValidateRows32(prepared); err != nil {
			return nil, err
		}
	}
	ids, err := ix.eng.Insert(prepared)
	if err != nil {
		return nil, fmt.Errorf("parclust: %w", err)
	}
	return ids, nil
}

// Delete removes the points with the given external ids. Validation is
// all-or-nothing: if any id does not name a live point, the Index is
// unchanged and the error wraps ErrUnknownID.
func (ix *Index) Delete(ids []int64) error {
	if len(ids) == 0 {
		return nil
	}
	if err := ix.eng.Delete(ids); err != nil {
		return fmt.Errorf("parclust: %w", err)
	}
	return nil
}

// MutationEpoch returns the Index's mutation epoch: a counter bumped at the
// start of every Insert/Delete, before the mutation is applied. Capture it
// when a query begins and compare on completion to detect a mutation racing
// the query mid-flight.
func (ix *Index) MutationEpoch() uint64 { return ix.eng.MutationEpoch() }

// Dirty reports whether uncompacted mutations exist: the base tree differs
// from the live point set. A dirty Index compacts automatically before any
// global stage query or snapshot write.
func (ix *Index) Dirty() bool { return ix.eng.Dirty() }

// ExternalIDs returns the live external ids in dense-id order: element q is
// the external id of the point that queries address as q. The slice is a
// copy.
func (ix *Index) ExternalIDs() []int64 { return ix.eng.ExternalIDs() }

// Compact forces a dirty Index into canonical form — the live rows become
// the base tree in external-id order, overlay and tombstones are reclaimed
// — without waiting for the automatic backlog threshold. Queries before and
// after compaction answer identically; only their cost profile changes.
func (ix *Index) Compact() error {
	if err := ix.eng.Compact(ix.ctx); err != nil {
		return err
	}
	return nil
}

// DynStats is a snapshot of the Index's dynamic-layer occupancy: live
// points, uncompacted overlay inserts, outstanding tombstones, and whether
// a compaction is pending.
type DynStats = engine.DynInfo

// DynStats returns the Index's current dynamic-layer occupancy.
func (ix *Index) DynStats() DynStats { return ix.eng.DynInfo() }
