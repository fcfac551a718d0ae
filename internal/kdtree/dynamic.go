package kdtree

import (
	"math"

	"parclust/internal/geometry"
)

// The engine's dynamic layer answers point queries on a mutated index
// through the same traversals as a clean one (knn.go, range.go), changing
// only their query (scan.go):
//
//   - The query is a raw coordinate vector, not an indexed point id,
//     because the query point may live in the engine's overlay buffer
//     rather than in the tree. Coordinate queries run on the float64 path
//     on every tree, float32 ones included.
//   - tomb marks deleted points by original id. Leaf scans skip them, and
//     range counts stop counting whole subtrees inside the ball, because a
//     node's Size() no longer equals its live population. A clean index
//     passes nil.
//
// So a live result uses exactly the kernels of the static float64 queries
// (the monomorphized squared-Euclidean kernel + sqrt for L2, M.Dist
// otherwise) and is bit-identical to the same query against a tree freshly
// built over the surviving points.

// DistCoords returns the tree-metric distance between two coordinate rows,
// using the same kernel sequence as the tree's own leaf scans (squared
// kernel + sqrt under L2, the metric itself otherwise), so overlay-point
// distances merge bit-identically with tree results.
func (t *Tree) DistCoords(a, b []float64) float64 {
	if t.l2 {
		return math.Sqrt(geometry.SqDistVec(a, b))
	}
	return t.M.Dist(a, b)
}

// KNNLiveInto returns the k nearest non-tombstoned tree points to the
// coordinate vector qc, sorted by increasing tree-metric distance, appending
// into the workspace's buffers. Result ids are original input ids. Fewer
// than k results are returned when fewer than k live points exist.
func (t *Tree) KNNLiveInto(qc []float64, k int, tomb []bool, ws *KNNWorkspace) []Neighbor {
	q := t.coords(qc, tomb)
	return t.knnInto(&q, k, ws)
}

// RangeQueryLiveAppend appends the original ids of all non-tombstoned tree
// points within tree-metric distance r of the coordinate vector qc, in no
// particular order. tomb is indexed by original id; nil means none.
func (t *Tree) RangeQueryLiveAppend(qc []float64, r float64, tomb []bool, out []int32) []int32 {
	q := t.coords(qc, tomb)
	t.rangeQuery(t.Root, &q, t.cmpRadius(&q, r), &out)
	return out
}

// RangeCountLive returns the number of non-tombstoned tree points within
// tree-metric distance r of the coordinate vector qc. Subtrees inside the
// ball are counted wholesale only when tomb is nil: with tombstones a
// node's Size() overcounts its live points.
func (t *Tree) RangeCountLive(qc []float64, r float64, tomb []bool) int {
	q := t.coords(qc, tomb)
	return t.rangeCount(t.Root, &q, t.cmpRadius(&q, r))
}
