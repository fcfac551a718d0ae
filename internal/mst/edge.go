// Package mst implements the paper's minimum spanning tree algorithms over
// well-separated pair decompositions: EMST-Naive, the parallel
// GeoFilterKruskal (Algorithm 2), the memory-optimized MemoGFK
// (Algorithm 3), a single-tree Borůvka baseline, and a dense Prim oracle
// used for validation. All algorithms are parameterized by a kdtree.Metric,
// so they also compute the HDBSCAN* MST of the mutual reachability graph.
package mst

import (
	"cmp"
	"math"
)

// Edge is a weighted undirected edge between point indices U < V.
type Edge struct {
	U, V int32
	W    float64
}

// MakeEdge returns the canonical (U < V) edge.
func MakeEdge(u, v int32, w float64) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v, W: w}
}

// Less is the total order on edges shared by Kruskal, Prim, and the
// dendrogram algorithms: weight first, then endpoint ids. Using one total
// order everywhere makes tie handling deterministic, so the reachability
// plot derived from the dendrogram matches the Prim oracle exactly.
func Less(a, b Edge) bool {
	if a.W != b.W {
		return a.W < b.W
	}
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
}

// Compare is Less as a three-way comparison, for slices.SortFunc: it is
// negative exactly when Less(a, b) and, for weights that are not NaN,
// positive exactly when Less(b, a).
func Compare(a, b Edge) int {
	if a.W != b.W {
		if a.W < b.W {
			return -1
		}
		return 1
	}
	if a.U != b.U {
		return cmp.Compare(a.U, b.U)
	}
	return cmp.Compare(a.V, b.V)
}

// TotalWeight sums edge weights.
func TotalWeight(edges []Edge) float64 {
	var s float64
	for _, e := range edges {
		s += e.W
	}
	return s
}

// PrimDense computes an MST of the complete graph on n points under dist
// with O(n^2) work. It is the validation oracle for every other algorithm
// in this package. Ties are broken by the Less order above.
func PrimDense(n int, dist func(i, j int32) float64) []Edge {
	if n <= 1 {
		return nil
	}
	inTree := make([]bool, n)
	bestW := make([]float64, n)
	bestFrom := make([]int32, n)
	for i := range bestW {
		bestW[i] = math.Inf(1)
		bestFrom[i] = -1
	}
	inTree[0] = true
	for j := int32(1); j < int32(n); j++ {
		bestW[j] = dist(0, j)
		bestFrom[j] = 0
	}
	edges := make([]Edge, 0, n-1)
	for len(edges) < n-1 {
		pick := int32(-1)
		for j := int32(0); j < int32(n); j++ {
			if inTree[j] {
				continue
			}
			if pick < 0 {
				pick = j
				continue
			}
			a := MakeEdge(bestFrom[j], j, bestW[j])
			b := MakeEdge(bestFrom[pick], pick, bestW[pick])
			if Less(a, b) {
				pick = j
			}
		}
		inTree[pick] = true
		edges = append(edges, MakeEdge(bestFrom[pick], pick, bestW[pick]))
		for j := int32(0); j < int32(n); j++ {
			if inTree[j] {
				continue
			}
			w := dist(pick, j)
			if w < bestW[j] || (w == bestW[j] && Less(MakeEdge(pick, j, w), MakeEdge(bestFrom[j], j, bestW[j]))) {
				bestW[j] = w
				bestFrom[j] = pick
			}
		}
	}
	return edges
}
