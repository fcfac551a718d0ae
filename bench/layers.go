package main

// The one file that calls into parclust/internal. Every layer the benchmark
// times from outside — generators, the k-d tree, the WSPD, the MST drivers,
// the dendrogram, the distance kernels and the test oracle — is reached
// through the functions below, so a signature change in an internal package
// touches only this file. The pipeline mirrors what internal/engine runs for
// a cold Index.HDBSCAN / Index.EMST on the L2 kernel.

import (
	"fmt"
	"runtime"
	"time"

	"parclust"
	"parclust/internal/dendrogram"
	"parclust/internal/generator"
	"parclust/internal/geometry"
	"parclust/internal/hdbscan"
	"parclust/internal/kdtree"
	"parclust/internal/metric"
	"parclust/internal/mst"
	"parclust/internal/oracle"
	"parclust/internal/wspd"
)

// geoLifeBlocks is the number of independently seeded GeoLife-like regions a
// batch-geolife3d input concatenates. One region's work depends strongly on
// its seed (12 hotspots with random scales); eight regions average that out
// so that runs with different seeds measure comparable work.
const geoLifeBlocks = 8

// geoLifeMix returns n 3D points: geoLifeBlocks GeoLife-like regions of
// n/geoLifeBlocks points each, sharing one coordinate domain.
func geoLifeMix(n int, seed int64) parclust.Points {
	pts := parclust.NewPoints(0, 3)
	for b := 0; b < geoLifeBlocks; b++ {
		blk := generator.GeoLifeLike(n/geoLifeBlocks, seed*geoLifeBlocks+int64(b))
		pts.Data = append(pts.Data, blk.Data...)
		pts.N += blk.N
	}
	return pts
}

// embedPoints returns n unit-norm embedding-like vectors in dim dimensions
// drawn around k direction clusters.
func embedPoints(n, dim, k int, seed int64) parclust.Points {
	return generator.Embed(n, dim, k, seed)
}

// isSpanningTree reports whether edges form one spanning tree over n
// vertices (checked by BFS, not by the union-find the pipeline uses).
func isSpanningTree(n int, edges []parclust.Edge) bool { return oracle.IsSpanningTree(n, edges) }

// mergeHeights returns the sorted edge weights: the single-linkage merge
// heights a spanning tree induces.
func mergeHeights(edges []parclust.Edge) []float64 { return oracle.MergeHeights(edges) }

// mstCounts are the exact work counters of one MemoGFK run.
type mstCounts struct {
	BCCPCalls, PairsMaterialized, PeakPairsResident, Rounds int64
}

func countsOf(s *mst.Stats) mstCounts {
	return mstCounts{
		BCCPCalls:         s.BCCPComputed,
		PairsMaterialized: s.PairsMaterialized,
		PeakPairsResident: s.PeakPairsResident,
		Rounds:            s.Rounds,
	}
}

// directTree is a k-d tree built by calling the kdtree package directly,
// with the state the direct pipeline threads from stage to stage.
type directTree struct {
	t  *kdtree.Tree
	cd []float64
	ws kdtree.KNNWorkspace
}

// buildTree builds the leaf-size-1 tree every stage shares, attaching the
// float32 panels when f32 is set (as a Float32 Index does).
func buildTree(pts parclust.Points, f32 bool) (*directTree, error) {
	t := kdtree.BuildMetric(pts, 1, metric.L2{})
	if f32 {
		if err := t.EnableFloat32(); err != nil {
			return nil, fmt.Errorf("enable float32: %w", err)
		}
	}
	return &directTree{t: t}, nil
}

// coreDistances computes the minPts core distances and annotates the tree
// with them, as the HDBSCAN* MST stage requires.
func (d *directTree) coreDistances(minPts int) {
	d.cd = d.t.CoreDistances(minPts)
	d.t.AnnotateCoreDists(d.cd)
}

// wspdPairs counts the well-separated pairs of the annotated tree under the
// classic geometric separation (s=2) and under the paper's disjunctive
// mutual-unreachability separation.
func (d *directTree) wspdPairs() (geometric, mutual int) {
	return wspd.Count(d.t, wspd.Geometric{S: 2}), wspd.Count(d.t, wspd.MutualUnreachable{})
}

// hdbscanMST runs MemoGFK over mutual reachability on the annotated tree.
func (d *directTree) hdbscanMST() ([]parclust.Edge, mstCounts) {
	st := mst.NewStats()
	edges := hdbscan.MSTOnAnnotatedTree(d.t, hdbscan.MemoGFK, metric.L2{}, nil, st)
	return edges, countsOf(st)
}

// emst runs MemoGFK over Euclidean distance with the geometric separation.
func (d *directTree) emst() ([]parclust.Edge, mstCounts) {
	st := mst.NewStats()
	edges := mst.MemoGFK(mst.Config{Tree: d.t, Metric: kdtree.NewEuclidean(d.t), Sep: wspd.Geometric{S: 2}, Stats: st})
	return edges, countsOf(st)
}

// knn runs one k-nearest-neighbour query for the point with id q.
func (d *directTree) knn(q int32, k int) int { return len(d.t.KNNInto(q, k, &d.ws)) }

// buildDendrogram builds the ordered dendrogram of an MST from vertex 0.
func buildDendrogram(n int, edges []parclust.Edge) int {
	return dendrogram.BuildParallel(n, edges, 0).NumInternal()
}

// cutter precomputes the merge order flat cuts read.
type cutter struct{ c *dendrogram.Cutter }

func newCutter(n int, edges []parclust.Edge, coreDist []float64) cutter {
	return cutter{dendrogram.NewCutter(n, edges, coreDist)}
}

func (c cutter) cut(eps float64) int { return c.c.CutAt(eps).NumClusters }

// distanceKernelNs times the float32 and float64 squared-distance row kernels
// over a fixed block of dim-dimensional rows and returns nanoseconds per
// distance for each: the median of five passes of `calls` distances.
func distanceKernelNs(dim, calls int) (ns32, ns64 float64) {
	const rows = 1024
	a64 := make([]float64, rows*dim)
	a32 := make([]float32, rows*dim)
	for i := range a64 {
		a64[i] = float64(i%97) / 97
		a32[i] = float32(a64[i])
	}
	var t32, t64 []float64
	for pass := 0; pass < 5; pass++ {
		start := time.Now()
		var s32 float32
		for c := 0; c < calls; c++ {
			i, j := (c%rows)*dim, ((c*7+3)%rows)*dim
			s32 += metric.SqDistRow32(a32[i:i+dim], a32[j:j+dim])
		}
		t32 = append(t32, float64(time.Since(start).Nanoseconds())/float64(calls))
		start = time.Now()
		s64 := 0.0
		for c := 0; c < calls; c++ {
			i, j := (c%rows)*dim, ((c*7+3)%rows)*dim
			s64 += geometry.SqDistVec(a64[i:i+dim], a64[j:j+dim])
		}
		t64 = append(t64, float64(time.Since(start).Nanoseconds())/float64(calls))
		runtime.KeepAlive(s32) // the sums keep the kernel loops from being optimized away
		runtime.KeepAlive(s64)
	}
	return median(t32), median(t64)
}
