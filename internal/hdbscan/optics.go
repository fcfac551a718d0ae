package hdbscan

import (
	"math"

	"parclust/internal/geometry"
	"parclust/internal/kdtree"
	"parclust/internal/metric"
	"parclust/internal/mst"
	"parclust/internal/parallel"
	"parclust/internal/wspd"
)

// ApproxOPTICS implements the parallel approximate OPTICS algorithm of
// Appendix C (after Gan and Tao): a WSPD with separation s = sqrt(8/rho)
// generates O(n * minPts^2) candidate edges — all cross pairs when both
// sides are smaller than minPts, representative-to-all otherwise — weighted
// by w(u,v) = max{cd(u), cd(v), d(u,v)/(1+rho)}; the MST of that graph
// approximates the OPTICS/HDBSCAN* MST within a factor of (1+rho).
//
// Following the paper's implementation note, the representative point of a
// node is a fixed sample (its first point) rather than an approximate BCCP.
func ApproxOPTICS(pts geometry.Points, minPts int, rho float64, stats *mst.Stats) Result {
	if !(rho > 0) {
		panic("hdbscan: ApproxOPTICS requires rho > 0")
	}
	var t *kdtree.Tree
	stats.Time(mst.PhaseBuildTree, func() {
		t = kdtree.BuildMetric(pts, 1, metric.L2{})
	})
	var cd []float64
	stats.Time(mst.PhaseCoreDist, func() {
		cd = t.CoreDistances(minPts)
		t.AnnotateCoreDists(cd)
	})
	s := math.Sqrt(8 / rho)
	var pairs []wspd.Pair
	stats.Time(mst.PhaseWSPD, func() {
		pairs = wspd.Decompose(t, wspd.Geometric{S: s}, nil)
	})
	// Candidate generation runs in the tree's kd-order space (node point
	// ranges are contiguous); edges are mapped back to original ids after
	// Kruskal. t.CoreDist is the kd-order copy AnnotateCoreDists made.
	weight := func(u, v int32) float64 {
		d := t.Pts.Dist(int(u), int(v)) / (1 + rho)
		return math.Max(d, math.Max(t.CoreDist[u], t.CoreDist[v]))
	}
	// Generate candidate edges per pair (cases (a)-(d) of Appendix C).
	perPair := make([][]mst.Edge, len(pairs))
	genEdges := func() {
		parallel.For(len(pairs), 8, func(i int) {
			a, b := pairs[i].A, pairs[i].B
			var out []mst.Edge
			switch {
			case a.Size() < minPts && b.Size() < minPts:
				out = make([]mst.Edge, 0, a.Size()*b.Size())
				for u := a.Lo; u < a.Hi; u++ {
					for v := b.Lo; v < b.Hi; v++ {
						out = append(out, mst.MakeEdge(u, v, weight(u, v)))
					}
				}
			case a.Size() >= minPts && b.Size() < minPts:
				rep := a.Lo
				out = make([]mst.Edge, 0, b.Size())
				for v := b.Lo; v < b.Hi; v++ {
					out = append(out, mst.MakeEdge(rep, v, weight(rep, v)))
				}
			case a.Size() < minPts && b.Size() >= minPts:
				rep := b.Lo
				out = make([]mst.Edge, 0, a.Size())
				for u := a.Lo; u < a.Hi; u++ {
					out = append(out, mst.MakeEdge(u, rep, weight(u, rep)))
				}
			default:
				out = []mst.Edge{mst.MakeEdge(a.Lo, b.Lo, weight(a.Lo, b.Lo))}
			}
			perPair[i] = out
		})
	}
	var edges []mst.Edge
	stats.Time(mst.PhaseGenEdges, func() {
		genEdges()
		total := 0
		for _, es := range perPair {
			total += len(es)
		}
		edges = make([]mst.Edge, 0, total)
		for _, es := range perPair {
			edges = append(edges, es...)
		}
	})
	stats.AddPairs(int64(len(pairs)))
	stats.NotePeak(int64(len(edges)))
	var out []mst.Edge
	stats.Time(mst.PhaseKruskal, func() {
		out = mst.Kruskal(pts.N, edges)
	})
	for i, e := range out {
		out[i] = mst.MakeEdge(t.Orig[e.U], t.Orig[e.V], e.W)
	}
	return Result{MST: out, CoreDist: cd}
}
