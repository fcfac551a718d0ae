package dendrogram

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"parclust/internal/geometry"
	"parclust/internal/kdtree"
	"parclust/internal/metric"
	"parclust/internal/mst"
	"parclust/internal/unionfind"
	"parclust/internal/wspd"
)

func randPoints(n, dim int, seed int64) geometry.Points {
	rng := rand.New(rand.NewSource(seed))
	p := geometry.NewPoints(n, dim)
	for i := range p.Data {
		p.Data[i] = rng.Float64() * 100
	}
	return p
}

func emstOf(pts geometry.Points) []mst.Edge {
	t := kdtree.BuildMetric(pts, 1, metric.L2{})
	return mst.MemoGFK(mst.Config{Tree: t, Metric: kdtree.NewEuclidean(t), Sep: wspd.Geometric{S: 2}})
}

// randTree builds a random spanning tree with random weights.
func randTree(n int, seed int64) []mst.Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]mst.Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, mst.MakeEdge(int32(rng.Intn(i)), int32(i), rng.Float64()))
	}
	return edges
}

func checkDendrogram(t *testing.T, d *Dendrogram, edges []mst.Edge) {
	t.Helper()
	if d.NumInternal() != len(edges) {
		t.Fatalf("%d internal nodes, want %d", d.NumInternal(), len(edges))
	}
	// Every leaf appears exactly once; parent heights dominate child heights.
	seen := make([]int, d.N)
	var walk func(id int32, bound float64)
	walk = func(id int32, bound float64) {
		if d.IsLeaf(id) {
			seen[id]++
			return
		}
		h := d.HeightOf(id)
		if h > bound+1e-12 {
			t.Fatalf("child height %v exceeds parent height %v", h, bound)
		}
		l, r := d.Children(id)
		walk(l, h)
		walk(r, h)
	}
	walk(d.Root, math.Inf(1))
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("leaf %d appears %d times", i, c)
		}
	}
	// Heights are exactly the edge weights (as multisets).
	hs := append([]float64(nil), d.Height...)
	ws := make([]float64, len(edges))
	for i, e := range edges {
		ws[i] = e.W
	}
	slices.Sort(hs)
	slices.Sort(ws)
	for i := range hs {
		if hs[i] != ws[i] {
			t.Fatalf("height multiset differs from edge weights at %d", i)
		}
	}
}

func TestSequentialOrderedDendrogram(t *testing.T) {
	for _, n := range []int{2, 3, 10, 100, 500} {
		edges := randTree(n, int64(n))
		s := int32(n / 3)
		d := BuildSequential(n, edges, s)
		checkDendrogram(t, d, edges)
		got := d.ReachabilityPlot()
		want := PrimOrder(n, edges, s)
		if len(got) != len(want) {
			t.Fatalf("plot length %d, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Idx != want[i].Idx {
				t.Fatalf("n=%d: plot order differs at %d: %d vs %d", n, i, got[i].Idx, want[i].Idx)
			}
			if i > 0 && math.Abs(got[i].H-want[i].H) > 1e-12 {
				t.Fatalf("n=%d: plot height differs at %d: %v vs %v", n, i, got[i].H, want[i].H)
			}
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	for _, n := range []int{2, 3, 17, 100, 1000, 5000} {
		edges := randTree(n, int64(n)*7)
		s := int32(0)
		ds := BuildSequential(n, edges, s)
		// Force the parallel path with a small threshold.
		dp := BuildParallelThreshold(n, append([]mst.Edge(nil), edges...), s, 8)
		checkDendrogram(t, dp, edges)
		gotP := dp.ReachabilityPlot()
		gotS := ds.ReachabilityPlot()
		for i := range gotS {
			if gotP[i].Idx != gotS[i].Idx {
				t.Fatalf("n=%d: parallel plot differs from sequential at %d (%d vs %d)",
					n, i, gotP[i].Idx, gotS[i].Idx)
			}
			if i > 0 && gotP[i].H != gotS[i].H {
				t.Fatalf("n=%d: parallel plot height differs at %d", n, i)
			}
		}
	}
}

func TestParallelOnEMSTWithTies(t *testing.T) {
	// Mutual reachability MSTs have many tied weights; the shared total
	// order must keep parallel == sequential == Prim.
	pts := randPoints(400, 2, 9)
	tr := kdtree.BuildMetric(pts, 1, metric.L2{})
	cd := tr.CoreDistances(10)
	tr.AnnotateCoreDists(cd)
	edges := mst.MemoGFK(mst.Config{Tree: tr, Metric: kdtree.NewMutualReachability(tr), Sep: wspd.MutualUnreachable{}})
	for _, s := range []int32{0, 13, 399} {
		dp := BuildParallelThreshold(pts.N, append([]mst.Edge(nil), edges...), s, 16)
		want := PrimOrder(pts.N, edges, s)
		got := dp.ReachabilityPlot()
		for i := range want {
			if got[i].Idx != want[i].Idx {
				t.Fatalf("s=%d: plot order differs from Prim at %d", s, i)
			}
		}
	}
}

func TestParallelQuickProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, sRaw uint8) bool {
		n := 2 + int(nRaw)%200
		s := int32(int(sRaw) % n)
		edges := randTree(n, seed)
		dp := BuildParallelThreshold(n, append([]mst.Edge(nil), edges...), s, 4)
		want := PrimOrder(n, edges, s)
		got := dp.ReachabilityPlot()
		for i := range want {
			if got[i].Idx != want[i].Idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPathGraphWorstCase(t *testing.T) {
	// Increasing weights along a path: the warm-up algorithm's worst case.
	n := 2000
	edges := make([]mst.Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, mst.MakeEdge(int32(i-1), int32(i), float64(i)))
	}
	d := BuildParallelThreshold(n, append([]mst.Edge(nil), edges...), 0, 32)
	checkDendrogram(t, d, edges)
	plot := d.ReachabilityPlot()
	for i := range plot {
		if plot[i].Idx != int32(i) {
			t.Fatalf("path graph plot out of order at %d", i)
		}
	}
}

func TestSizes(t *testing.T) {
	n := 300
	edges := randTree(n, 5)
	d := BuildSequential(n, edges, 0)
	sz := d.Sizes()
	if sz[d.Root] != int32(n) {
		t.Fatalf("root size %d, want %d", sz[d.Root], n)
	}
	for x := n; x < 2*n-1; x++ {
		l, r := d.Children(int32(x))
		if sz[x] != sz[l]+sz[r] {
			t.Fatal("size not additive")
		}
	}
}

func TestCutterMatchesCutTree(t *testing.T) {
	pts := randPoints(200, 2, 12)
	edges := emstOf(pts)
	c := NewCutter(pts.N, edges, nil)
	for _, eps := range []float64{0, 1, 3, 10, 1e9} {
		a := c.CutAt(eps)
		b := CutTree(pts.N, edges, nil, eps)
		if a.NumClusters != b.NumClusters {
			t.Fatalf("eps=%v: %d vs %d clusters", eps, a.NumClusters, b.NumClusters)
		}
		for i := range a.Labels {
			if a.Labels[i] != b.Labels[i] {
				t.Fatalf("eps=%v: label mismatch at %d", eps, i)
			}
		}
	}
}

// TestCutTreeMatchesBruteForceDBSCANStar is the end-to-end semantics check:
// cutting the HDBSCAN* MST at eps must reproduce DBSCAN* exactly
// (same core points and same connected components of core points).
func TestCutTreeMatchesBruteForceDBSCANStar(t *testing.T) {
	pts := randPoints(150, 2, 13)
	minPts := 5
	tr := kdtree.BuildMetric(pts, 1, metric.L2{})
	cd := tr.CoreDistances(minPts)
	tr.AnnotateCoreDists(cd)
	edges := mst.MemoGFK(mst.Config{Tree: tr, Metric: kdtree.NewMutualReachability(tr), Sep: wspd.MutualUnreachable{}})
	for _, eps := range []float64{0.5, 2, 5, 12, 40} {
		got := CutTree(pts.N, edges, cd, eps)
		want := bruteDBSCANStar(pts, minPts, eps)
		if !sameClustering(got, want) {
			t.Fatalf("eps=%v: clustering differs from brute-force DBSCAN*", eps)
		}
	}
}

// bruteDBSCANStar computes DBSCAN* by definition: core points are points
// with >= minPts neighbors within eps (inclusive, counting self); clusters
// are connected components of core points under eps-adjacency.
func bruteDBSCANStar(pts geometry.Points, minPts int, eps float64) Clustering {
	n := pts.N
	core := make([]bool, n)
	for i := 0; i < n; i++ {
		cnt := 0
		for j := 0; j < n; j++ {
			if pts.Dist(i, j) <= eps {
				cnt++
			}
		}
		core[i] = cnt >= minPts
	}
	uf := unionfind.New(n)
	for i := 0; i < n; i++ {
		if !core[i] {
			continue
		}
		for j := i + 1; j < n; j++ {
			if core[j] && pts.Dist(i, j) <= eps {
				uf.Union(int32(i), int32(j))
			}
		}
	}
	labels := make([]int32, n)
	next := int32(0)
	id := map[int32]int32{}
	for i := 0; i < n; i++ {
		if !core[i] {
			labels[i] = -1
			continue
		}
		r := uf.Find(int32(i))
		c, ok := id[r]
		if !ok {
			c = next
			id[r] = c
			next++
		}
		labels[i] = c
	}
	return Clustering{Labels: labels, NumClusters: int(next)}
}

// sameClustering compares clusterings up to label renaming.
func sameClustering(a, b Clustering) bool {
	if len(a.Labels) != len(b.Labels) || a.NumClusters != b.NumClusters {
		return false
	}
	fwd := map[int32]int32{}
	bwd := map[int32]int32{}
	for i := range a.Labels {
		la, lb := a.Labels[i], b.Labels[i]
		if (la == -1) != (lb == -1) {
			return false
		}
		if la == -1 {
			continue
		}
		if m, ok := fwd[la]; ok && m != lb {
			return false
		}
		if m, ok := bwd[lb]; ok && m != la {
			return false
		}
		fwd[la] = lb
		bwd[lb] = la
	}
	return true
}

func TestSingleLeafDendrogram(t *testing.T) {
	d := BuildSequential(1, nil, 0)
	if d.Root != 0 || d.NumInternal() != 0 {
		t.Fatal("singleton dendrogram malformed")
	}
	plot := d.ReachabilityPlot()
	if len(plot) != 1 || plot[0].Idx != 0 {
		t.Fatal("singleton plot malformed")
	}
}
