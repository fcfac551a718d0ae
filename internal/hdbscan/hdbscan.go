// Package hdbscan implements the paper's HDBSCAN* algorithms (Section 3.2):
// parallel core-distance computation, the exact parallelized Gan–Tao
// baseline (classic geometric well-separation), the improved space-efficient
// algorithm using the new disjunctive well-separation, and the parallel
// approximate OPTICS algorithm of Appendix C. All variants produce the MST
// of the mutual reachability graph, from which package dendrogram derives
// the cluster hierarchy and reachability plot.
package hdbscan

import (
	"parclust/internal/abort"
	"parclust/internal/kdtree"
	"parclust/internal/metric"
	"parclust/internal/mst"
	"parclust/internal/wspd"
)

// Result bundles the outputs of an HDBSCAN* MST computation.
type Result struct {
	MST      []mst.Edge
	CoreDist []float64
}

// Algorithm selects the HDBSCAN* MST variant.
type Algorithm int

const (
	// MemoGFK is the paper's space-efficient algorithm (Section 3.2.2):
	// MemoGFK with the new disjunctive well-separation.
	MemoGFK Algorithm = iota
	// GanTao is the exact parallelized Gan–Tao baseline (Section 3.2.1):
	// MemoGFK machinery with the classic geometric well-separation.
	GanTao
	// GanTaoFull is GanTao without the memory optimization: the full WSPD
	// is materialized and run through GFK.
	GanTaoFull
)

// MSTOnAnnotatedTree runs the selected HDBSCAN* MST variant over a tree
// whose core-distance annotations (AnnotateCoreDists) are already in place
// for the desired minPts — the MST stage of the pipeline, separated so a
// caller memoizing trees and core distances (internal/engine) can rerun
// only this stage when minPts changes. ws supplies reusable round buffers
// (nil for a private workspace); stats may be nil.
func MSTOnAnnotatedTree(t *kdtree.Tree, algo Algorithm, m metric.Metric, ws *mst.Workspace, stats *mst.Stats) []mst.Edge {
	return MSTOnAnnotatedTreeCancel(t, algo, m, ws, stats, nil)
}

// MSTOnAnnotatedTreeCancel is MSTOnAnnotatedTree with a cooperative
// cancellation flag threaded into the MST rounds and WSPD traversals
// (see mst.Config.Abort). af may be nil.
func MSTOnAnnotatedTreeCancel(t *kdtree.Tree, algo Algorithm, m metric.Metric, ws *mst.Workspace, stats *mst.Stats, af *abort.Flag) []mst.Edge {
	// The edge metric runs in the tree's kd-order space (contiguous leaf
	// scans); results are mapped back to original ids by the MST driver.
	w := kdtree.NewMutualReachability(t)
	var disjunctive, geometric wspd.Separation
	if metric.IsL2(m) {
		disjunctive, geometric = wspd.MutualUnreachable{}, wspd.Geometric{S: 2}
	} else {
		disjunctive, geometric = wspd.MetricMutualUnreachable{M: m}, wspd.MetricGeometric{M: m, S: 2}
	}
	switch algo {
	case MemoGFK:
		return mst.MemoGFK(mst.Config{Tree: t, Metric: w, Sep: disjunctive, Stats: stats, WS: ws, Abort: af})
	case GanTao:
		return mst.MemoGFK(mst.Config{Tree: t, Metric: w, Sep: geometric, Stats: stats, WS: ws, Abort: af})
	case GanTaoFull:
		return mst.GFK(mst.Config{Tree: t, Metric: w, Sep: geometric, Stats: stats, WS: ws, Abort: af})
	default:
		panic("hdbscan: unknown algorithm")
	}
}
