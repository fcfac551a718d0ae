package dendrogram

import (
	"math/rand"
	"testing"

	"parclust/internal/generator"
	"parclust/internal/kdtree"
	"parclust/internal/metric"
	"parclust/internal/mst"
	"parclust/internal/wspd"
)

// Tree shapes for FuzzBuildParallel.
const (
	shapeRandom = iota
	shapePath
	shapeStar
	shapeCaterpillar
	numShapes
)

// shapedTree returns a spanning tree over n vertices of the given shape,
// with vertex labels shuffled and weights drawn from {0, ..., alphabet-1}
// so that ties are common.
func shapedTree(rng *rand.Rand, shape, n, alphabet int) []mst.Edge {
	label := rng.Perm(n)
	spine := max(n/2, 1)
	edges := make([]mst.Edge, 0, n-1)
	for i := 1; i < n; i++ {
		var j int
		switch shape {
		case shapeRandom:
			j = rng.Intn(i)
		case shapePath:
			j = i - 1
		case shapeStar:
			j = 0
		case shapeCaterpillar:
			if i < spine {
				j = i - 1
			} else {
				j = rng.Intn(spine)
			}
		}
		edges = append(edges, mst.MakeEdge(int32(label[i]), int32(label[j]), float64(rng.Intn(alphabet))))
	}
	return edges
}

// FuzzBuildParallel checks the parallel builder against Prim's order and
// the sequential builder on trees of every shape, up to 4,096 vertices,
// with heavily tied weights, any start vertex and sequential cutoffs from 1
// to 64, so that most inputs recurse through several levels.
func FuzzBuildParallel(f *testing.F) {
	for shape := range uint8(numShapes) {
		f.Add(int64(shape), shape, uint16(300), uint8(2), uint16(7), uint8(3))
		f.Add(int64(shape)+10, shape, uint16(4000), uint8(5), uint16(1234), uint8(40))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, nRaw uint16, alphabet uint8, sRaw uint16, thrRaw uint8) {
		n := 2 + int(nRaw)%4095
		s := int32(int(sRaw) % n)
		threshold := 1 + int(thrRaw)%64
		rng := rand.New(rand.NewSource(seed))
		edges := shapedTree(rng, int(shape)%numShapes, n, 1+int(alphabet)%8)

		d := BuildParallelThreshold(n, append([]mst.Edge(nil), edges...), s, threshold)
		checkDendrogram(t, d, edges)
		got, want, seq := d.ReachabilityPlot(), PrimOrder(n, edges, s), BuildSequential(n, edges, s).ReachabilityPlot()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d s=%d threshold=%d: plot bar %d is %+v, Prim gives %+v", n, s, threshold, i, got[i], want[i])
			}
			if seq[i] != want[i] {
				t.Fatalf("n=%d s=%d: BuildSequential's plot bar %d is %+v, Prim gives %+v", n, s, i, seq[i], want[i])
			}
		}
	})
}

// TestBuildParallelAllocs bounds the builder's allocations at GOMAXPROCS=1
// (testing.AllocsPerRun's setting) on the HDBSCAN* (minPts 10) MST of the
// 20,000-point GeoLife-like mix that the root package's
// TestGoldenDendrogram pins. Each level allocates a fixed number of slices
// and one closure per light component: 257 allocations measured. A builder
// that makes maps per level needs about 1,800, which the bound rejects.
func TestBuildParallelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	pts := generator.GeoLifeLike(2500, 100)
	for b := int64(1); b < 8; b++ {
		blk := generator.GeoLifeLike(2500, 100+b)
		pts.Data = append(pts.Data, blk.Data...)
		pts.N += blk.N
	}
	tr := kdtree.BuildMetric(pts, 1, metric.L2{})
	tr.AnnotateCoreDists(tr.CoreDistances(10))
	edges := mst.MemoGFK(mst.Config{Tree: tr, Metric: kdtree.NewMutualReachability(tr), Sep: wspd.MutualUnreachable{}})
	const bound = 400
	if allocs := testing.AllocsPerRun(3, func() { BuildParallel(pts.N, edges, 0) }); allocs > bound {
		t.Fatalf("BuildParallel allocated %v times, want at most %d", allocs, bound)
	}
}
