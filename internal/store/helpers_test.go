package store

import (
	"context"

	"parclust/internal/engine"
)

// Background-context, panic-on-error wrappers over the ctx-aware engine
// stage entries for these tests, which never expect a build to fail.

func testHier(e *engine.Engine, kind engine.Kind, algo uint8, minPts int) *engine.HierStage {
	st, err := e.Hierarchy(context.Background(), kind, algo, minPts)
	if err != nil {
		panic(err)
	}
	return st
}

func testCoreDist(e *engine.Engine, minPts int) []float64 {
	cd, err := e.CoreDist(context.Background(), minPts)
	if err != nil {
		panic(err)
	}
	return cd
}
