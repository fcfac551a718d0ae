package engine

import (
	"context"

	"parclust/internal/hdbscan"
	"parclust/internal/kdtree"
	"parclust/internal/mst"
)

// Background-context, panic-on-error wrappers over the ctx-aware stage
// entries for the happy-path tests, which predate cancellation and never
// expect a build to fail.

func testTree(e *Engine) *kdtree.Tree {
	tr, err := e.Tree(context.Background())
	if err != nil {
		panic(err)
	}
	return tr
}

func testHier(e *Engine, kind Kind, algo uint8, minPts int) *HierStage {
	st, err := e.Hierarchy(context.Background(), kind, algo, minPts)
	if err != nil {
		panic(err)
	}
	return st
}

// testHDB returns the MST and core distances of the HDBSCAN* hierarchy
// stage for minPts.
func testHDB(e *Engine, minPts int, algo hdbscan.Algorithm) ([]mst.Edge, []float64) {
	st := testHier(e, KindHDBSCAN, uint8(algo), minPts)
	return st.MST, st.CoreDist
}

func testEMST(e *Engine, algo EMSTAlgo) []mst.Edge {
	edges, _, err := e.EMST(context.Background(), algo)
	if err != nil {
		panic(err)
	}
	return edges
}
