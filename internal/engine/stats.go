package engine

import "sync/atomic"

// counters tracks the engine's activity outside the stage families (each
// family counts its own builds, hits and coalesced waits) with atomics, so
// hot read paths never take a lock to record a cut hit.
type counters struct {
	cutBuilds   atomic.Int64
	cutHits     atomic.Int64
	buildAborts atomic.Int64
	buildPanics atomic.Int64
	treePatches atomic.Int64
	compactions atomic.Int64
}

// Counters is a point-in-time snapshot of an Engine's stage cache counters.
// Builds count stage publications (a flight publishes its own stage and any
// upstream stage it had to build first); Hits count requests whose first
// look found the stage published; Coalesced counts requests that parked on
// a build another request was already running instead of triggering their
// own (the singleflight outcome — neither a build nor a hit). The leader of
// a flight counts neither a hit nor a coalesced wait. "Tree was built
// exactly once" is TreeBuilds == 1.
type Counters struct {
	// TreeBuilds / TreeHits / TreeCoalesced: k-d tree constructions vs.
	// reuses vs. requests parked on an in-flight construction.
	TreeBuilds, TreeHits, TreeCoalesced int64
	// CoreDistBuilds / CoreDistHits / CoreDistCoalesced: core-distance
	// computations (one per distinct minPts) vs. reuses vs. parked requests.
	CoreDistBuilds, CoreDistHits, CoreDistCoalesced int64
	// MSTBuilds / MSTHits / MSTCoalesced: MST runs (one per distinct kind x
	// algorithm x minPts) vs. reuses vs. parked requests.
	MSTBuilds, MSTHits, MSTCoalesced int64
	// DendrogramBuilds / DendrogramHits / DendrogramCoalesced:
	// ordered-dendrogram (+ cut structure) constructions vs. reuses vs.
	// parked requests.
	DendrogramBuilds, DendrogramHits, DendrogramCoalesced int64
	// CutBuilds / CutHits: flat-cut executions (one per distinct radius per
	// hierarchy stage, up to the per-stage cache bound) vs. cuts answered in
	// O(1) from a stage's cut-result cache. Cuts have no Coalesced counter:
	// a cut is cheap enough that concurrent cold requests just run it.
	CutBuilds, CutHits int64
	// BuildAborts counts stage builds cooperatively cancelled after every
	// interested request abandoned the flight; BuildPanics counts builds
	// that panicked (recovered at the flight boundary). Neither publishes a
	// stage output, so they never appear in the Builds counters.
	BuildAborts, BuildPanics int64
	// TreePatches counts mutations (Insert/Delete batches) absorbed by the
	// dynamic layer: each patched the overlay/tombstone state and
	// invalidated only downstream stages, keeping the base tree.
	// Compactions counts canonical rebuilds that folded the backlog into a
	// fresh base tree (each also increments TreeBuilds). MutationEpoch is
	// the current mutation epoch (see Engine.MutationEpoch).
	TreePatches, Compactions int64
	MutationEpoch            uint64
}

// Coalesced returns the total number of requests, across all stages, that
// parked on another goroutine's in-flight stage build instead of running
// their own. After N concurrent identical cold queries, Coalesced is N-1.
func (c Counters) Coalesced() int64 {
	return c.TreeCoalesced + c.CoreDistCoalesced + c.MSTCoalesced + c.DendrogramCoalesced
}

// Counters returns a snapshot of the engine's stage cache counters.
func (e *Engine) Counters() Counters {
	c := Counters{
		CutBuilds:     e.c.cutBuilds.Load(),
		CutHits:       e.c.cutHits.Load(),
		BuildAborts:   e.c.buildAborts.Load(),
		BuildPanics:   e.c.buildPanics.Load(),
		TreePatches:   e.c.treePatches.Load(),
		Compactions:   e.c.compactions.Load(),
		MutationEpoch: e.epoch.Load(),
	}
	c.TreeBuilds, c.TreeHits, c.TreeCoalesced = e.stages.tree.load()
	c.CoreDistBuilds, c.CoreDistHits, c.CoreDistCoalesced = e.stages.core.load()
	c.MSTBuilds, c.MSTHits, c.MSTCoalesced = e.stages.mst.load()
	c.DendrogramBuilds, c.DendrogramHits, c.DendrogramCoalesced = e.stages.hier.load()
	return c
}

// load reads the family's counters.
func (f *family) load() (builds, hits, coalesced int64) {
	return f.builds.Load(), f.hits.Load(), f.coalesced.Load()
}
