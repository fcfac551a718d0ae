package mst

import (
	"math/bits"
	"slices"

	"parclust/internal/unionfind"
)

// kruskalCutoff is the batch size at or below which KruskalBatch stops
// partitioning and sorts what is left. Cutoffs from 128 to 2,048 gave the
// same Kruskal phase times within run-to-run noise on 20k-point
// GeoLife-like EMSTs and HDBSCAN* MSTs (2-vCPU Xeon, GOMAXPROCS=2).
const kruskalCutoff = 1024

// KruskalBatch runs one Kruskal pass over a batch of candidate edges,
// unioning endpoints and appending the accepted edges to out in the shared
// total order (Less). It is Filter-Kruskal (Osipov, Sanders & Singler):
// the batch is partitioned around a pivot, the light side runs first, and
// heavy edges whose endpoints are then connected are dropped unsorted, so
// only the edges no lighter edge already rejects get sorted. The accepted
// edges and their order are those of sorting the whole batch and scanning
// it. The batch is reordered in place; its final order is unspecified.
// Batches must arrive in non-decreasing weight ranges for the overall
// result to be an MST (which the GFK round structure guarantees).
func KruskalBatch(edges []Edge, uf *unionfind.UF, out []Edge) []Edge {
	return filterKruskal(edges, uf, out, 2*bits.Len(uint(len(edges))))
}

// filterKruskal partitions while the batch is above kruskalCutoff and depth
// allows. Every level spends one unit of depth, so a run of unlucky pivots
// ends in a sort and the worst case stays O(m log m).
func filterKruskal(edges []Edge, uf *unionfind.UF, out []Edge, depth int) []Edge {
	for len(edges) > kruskalCutoff && depth > 0 {
		depth--
		light := partition(edges, medianOfThree(edges[0], edges[len(edges)/2], edges[len(edges)-1]))
		if light == 0 {
			// The pivot is the least edge left, so partitioning again
			// would not shrink the batch.
			break
		}
		out = filterKruskal(edges[:light], uf, out, depth)
		edges = dropConnected(edges[light:], uf)
	}
	slices.SortFunc(edges, Compare)
	for _, e := range edges {
		if uf.Union(e.U, e.V) {
			out = append(out, e)
		}
	}
	return out
}

// partition moves the edges Less than p to the front and returns how many
// there are.
func partition(edges []Edge, p Edge) int {
	i, j := 0, len(edges)-1
	for {
		for i <= j && Less(edges[i], p) {
			i++
		}
		for i <= j && !Less(edges[j], p) {
			j--
		}
		if i > j {
			return i
		}
		edges[i], edges[j] = edges[j], edges[i]
		i++
		j--
	}
}

// medianOfThree returns the median of a, b and c under Less.
func medianOfThree(a, b, c Edge) Edge {
	if Less(b, a) {
		a, b = b, a
	}
	if Less(c, b) {
		b = c
		if Less(b, a) {
			b = a
		}
	}
	return b
}

// dropConnected compacts edges in place to those whose endpoints uf does
// not connect yet.
func dropConnected(edges []Edge, uf *unionfind.UF) []Edge {
	k := 0
	for _, e := range edges {
		if !uf.Connected(e.U, e.V) {
			edges[k] = e
			k++
		}
	}
	return edges[:k]
}

// Kruskal computes an MST (or spanning forest) of the given edge list over
// n vertices, returning the accepted edges in weight order. The input
// slice is reordered in place (see KruskalBatch); callers that need the
// original order must copy before calling.
func Kruskal(n int, edges []Edge) []Edge {
	uf := unionfind.New(n)
	return KruskalBatch(edges, uf, make([]Edge, 0, max(n-1, 0)))
}
