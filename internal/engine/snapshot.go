package engine

import (
	"parclust/internal/dendrogram"
	"parclust/internal/geometry"
	"parclust/internal/kdtree"
	"parclust/internal/mst"
)

// Stage export/seed hooks for the persistent store (internal/store): an
// engine's memoized stage outputs can be lifted out as a StageSet for
// serialization and installed back into a fresh engine after a restart. A
// seeded stage is indistinguishable from a built one to every query path —
// except that the build counters stay at zero, which is exactly how the
// warm-restart tests prove nothing was recomputed — and that a seeded
// stage's build report is zero, since no flight built it.

// StageKey identifies one memoized stage: it keys the MST and hierarchy
// memos, the exported StageSet, and every family's in-flight table. For
// KindEMST, Algo is an EMSTAlgo and MinPts is 0; for KindHDBSCAN, Algo is an
// hdbscan.Algorithm. A tree stage is the zero key, and a core-distance
// stage sets only MinPts.
type StageKey struct {
	Kind   Kind
	Algo   uint8
	MinPts int
}

// StageSet is a point-in-time copy of an engine's memoized stage outputs.
// The maps are private to the caller, but the values (tree, slices,
// dendrograms) are shared with the engine and must be treated as read-only
// — which is also their contract inside the engine.
type StageSet struct {
	Tree  *kdtree.Tree
	Cores map[int][]float64
	MSTs  map[StageKey][]mst.Edge
	Hiers map[StageKey]*dendrogram.Dendrogram
}

// SnapshotView captures the base point set together with the published
// stage outputs under one registry read lock, so a serializer sees a
// mutation-coherent pair: the stages always describe exactly these points.
// (A mutation clears the stages before publishing, and compaction replaces
// points, tree, and dynamic state in one critical section.)
func (e *Engine) SnapshotView() (geometry.Points, StageSet) {
	e.regMu.RLock()
	defer e.regMu.RUnlock()
	s := StageSet{
		Tree:  e.tree,
		Cores: make(map[int][]float64, len(e.cores)),
		MSTs:  make(map[StageKey][]mst.Edge, len(e.msts)),
		Hiers: make(map[StageKey]*dendrogram.Dendrogram, len(e.hiers)),
	}
	for mp, cd := range e.cores {
		s.Cores[mp] = cd
	}
	for k, st := range e.msts {
		s.MSTs[k] = st.edges
	}
	for k, st := range e.hiers {
		if st.N > 0 { // the store encodes no dendrogram of zero points
			s.Hiers[k] = st.Dendro
		}
	}
	return e.Pts, s
}

// SeedStages installs previously exported stage outputs into the engine
// without running any build and without touching the build counters. Stages
// already present are kept (the engine's copy wins); a hierarchy stage is
// seeded only if its MST — and, for HDBSCAN, its core distances — landed
// too, since queries read those fields off the stage. Safe to call
// concurrently with queries; the usual registry locking applies.
func (e *Engine) SeedStages(s StageSet) {
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	e.regMu.Lock()
	defer e.regMu.Unlock()
	if e.tree == nil && s.Tree != nil {
		if !e.f32 || s.Tree.EnableFloat32() == nil {
			e.tree = s.Tree
		}
		// On a (theoretical) float32 attach failure the tree seed is simply
		// dropped; the next query rebuilds it cold.
	}
	for mp, cd := range s.Cores {
		if _, ok := e.cores[mp]; !ok && cd != nil {
			e.cores[mp] = cd
		}
	}
	for k, edges := range s.MSTs {
		if _, ok := e.msts[k]; !ok && edges != nil {
			e.msts[k] = mstStage{edges: edges}
		}
	}
	for k, d := range s.Hiers {
		if _, ok := e.hiers[k]; ok || d == nil {
			continue
		}
		ms, ok := e.msts[k]
		if !ok {
			continue
		}
		st := &HierStage{N: e.Pts.N, MST: ms.edges, MinPts: k.MinPts, Dendro: d, eng: e}
		if k.Kind == KindHDBSCAN {
			cd, ok := e.cores[k.MinPts]
			if !ok {
				continue
			}
			st.CoreDist = cd
		} else {
			// The EMST hierarchy is single-linkage: CoreDist stays nil and
			// the public entry point always passes minPts=1.
			st.MinPts = 1
		}
		e.hiers[k] = st
	}
}
