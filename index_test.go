package parclust

import (
	"math"
	"reflect"
	"slices"
	"testing"
)

// TestIndexParameterSweepStats is the acceptance criterion of the staged
// pipeline: a 3 minPts x 5 eps sweep over one Index performs exactly one
// tree build and three MST runs.
func TestIndexParameterSweepStats(t *testing.T) {
	pts := GenerateVarden(2000, 2, 7)
	idx, err := NewIndex(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	epsList := []float64{0.5, 1, 2, 4, 8}
	for _, minPts := range []int{5, 10, 20} {
		h, err := idx.HDBSCAN(minPts)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range epsList {
			c := h.ClustersAt(eps)
			if got := h.NumNoiseAt(eps); got != countNoise(c) {
				t.Fatalf("minPts=%d eps=%v: NumNoiseAt %d, labels say %d", minPts, eps, got, countNoise(c))
			}
		}
	}
	s := idx.Stats()
	if s.TreeBuilds != 1 {
		t.Fatalf("TreeBuilds = %d, want exactly 1", s.TreeBuilds)
	}
	if s.MSTBuilds != 3 {
		t.Fatalf("MSTBuilds = %d, want exactly 3", s.MSTBuilds)
	}
	if s.CoreDistBuilds != 3 {
		t.Fatalf("CoreDistBuilds = %d, want exactly 3", s.CoreDistBuilds)
	}
	if s.DendrogramBuilds != 3 {
		t.Fatalf("DendrogramBuilds = %d, want exactly 3", s.DendrogramBuilds)
	}
	// Repeating the full sweep must be all hits.
	for _, minPts := range []int{5, 10, 20} {
		if _, err := idx.HDBSCAN(minPts); err != nil {
			t.Fatal(err)
		}
	}
	s2 := idx.Stats()
	if s2.TreeBuilds != 1 || s2.MSTBuilds != 3 || s2.DendrogramHits != s.DendrogramHits+3 {
		t.Fatalf("repeat sweep recomputed stages: %+v -> %+v", s, s2)
	}
}

func countNoise(c Clustering) int {
	n := 0
	for _, l := range c.Labels {
		if l == -1 {
			n++
		}
	}
	return n
}

// TestIndexMatchesOneShot is the differential sweep: a warm shared Index —
// queried in scrambled order so memoized stages are reused across
// parameters — must return byte-identical results to the one-shot APIs
// (themselves throwaway-Index wrappers, so this pins memoization and
// annotation reuse to fresh-computation results) across metrics x minPts x
// eps.
func TestIndexMatchesOneShot(t *testing.T) {
	pts := GenerateVarden(400, 2, 13)
	minPtsList := []int{3, 9}
	epsList := []float64{0, 0.5, 1.5, 4, 1e9}
	for _, m := range Metrics() {
		idx, err := NewIndex(pts, &IndexOptions{Metric: m})
		if err != nil {
			t.Fatal(err)
		}
		// Warm the index out of order so later checks hit memoized stages
		// computed under interleaved annotations.
		for _, mp := range []int{9, 3, 9} {
			if _, err := idx.HDBSCAN(mp); err != nil {
				t.Fatalf("%v: %v", m, err)
			}
		}
		if _, err := idx.EMST(); err != nil {
			t.Fatal(err)
		}
		for _, mp := range minPtsList {
			h1, err := idx.HDBSCAN(mp)
			if err != nil {
				t.Fatal(err)
			}
			h2, err := HDBSCANMetric(pts, mp, m)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(h1.MST, h2.MST) {
				t.Fatalf("%v minPts=%d: MST differs between Index and one-shot", m, mp)
			}
			if !reflect.DeepEqual(h1.CoreDist, h2.CoreDist) {
				t.Fatalf("%v minPts=%d: core distances differ", m, mp)
			}
			if !reflect.DeepEqual(h1.ReachabilityPlot(), h2.ReachabilityPlot()) {
				t.Fatalf("%v minPts=%d: reachability plots differ", m, mp)
			}
			for _, eps := range epsList {
				if !reflect.DeepEqual(h1.ClustersAt(eps), h2.ClustersAt(eps)) {
					t.Fatalf("%v minPts=%d eps=%v: cuts differ", m, mp, eps)
				}
				if h1.NumNoiseAt(eps) != h2.NumNoiseAt(eps) {
					t.Fatalf("%v minPts=%d eps=%v: noise counts differ", m, mp, eps)
				}
				c1, err1 := idx.DBSCANStar(mp, eps)
				c2, err2 := DBSCANStarMetric(pts, mp, eps, m)
				if err1 != nil || err2 != nil {
					t.Fatalf("%v: dbscan* errors %v / %v", m, err1, err2)
				}
				if !reflect.DeepEqual(c1, c2) {
					t.Fatalf("%v minPts=%d eps=%v: DBSCAN* differs", m, mp, eps)
				}
				d1, err1 := idx.DBSCAN(mp, eps)
				d2, err2 := DBSCANMetric(pts, mp, eps, m)
				if err1 != nil || err2 != nil {
					t.Fatalf("%v: dbscan errors %v / %v", m, err1, err2)
				}
				if !reflect.DeepEqual(d1, d2) {
					t.Fatalf("%v minPts=%d eps=%v: DBSCAN differs", m, mp, eps)
				}
			}
			o1, err1 := idx.OPTICS(mp, 2.5)
			o2, err2 := OPTICSMetric(pts, mp, 2.5, m)
			if err1 != nil || err2 != nil {
				t.Fatalf("%v: optics errors %v / %v", m, err1, err2)
			}
			if !reflect.DeepEqual(o1, o2) {
				t.Fatalf("%v minPts=%d: OPTICS orderings differ", m, mp)
			}
		}
		for _, algo := range []EMSTAlgorithm{EMSTMemoGFK, EMSTGFK, EMSTNaive, EMSTBoruvka, EMSTWSPDBoruvka} {
			e1, err := idx.EMSTWithAlgorithm(algo)
			if err != nil {
				t.Fatalf("%v %v: %v", m, algo, err)
			}
			e2, err := emstWith(pts, algo, m)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(e1, e2) {
				t.Fatalf("%v %v: EMSTs differ between Index and one-shot", m, algo)
			}
		}
		sl1, err := idx.SingleLinkage()
		if err != nil {
			t.Fatal(err)
		}
		sl2, err := SingleLinkageMetric(pts, m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sl1.MST, sl2.MST) || !reflect.DeepEqual(sl1.ReachabilityPlot(), sl2.ReachabilityPlot()) {
			t.Fatalf("%v: single-linkage differs", m)
		}
	}
}

func TestIndexKNNAndRangeMatchTree(t *testing.T) {
	pts := GenerateUniform(300, 3, 17)
	idx, err := NewIndex(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	// KNN distances must be non-decreasing and start at the query itself.
	nb, err := idx.KNN(7, 5)
	if err != nil || len(nb) != 5 {
		t.Fatalf("KNN: %v, %d results", err, len(nb))
	}
	if nb[0].Idx != 7 || nb[0].Dist != 0 {
		t.Fatalf("KNN[0] = %+v, want the query point at distance 0", nb[0])
	}
	for i := 1; i < len(nb); i++ {
		if nb[i].Dist < nb[i-1].Dist {
			t.Fatal("KNN distances not sorted")
		}
	}
	r := nb[len(nb)-1].Dist
	ids, err := idx.RangeQuery(7, r)
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := idx.RangeCount(7, r)
	if err != nil || cnt != len(ids) {
		t.Fatalf("RangeCount %d != RangeQuery size %d (err %v)", cnt, len(ids), err)
	}
	// The sqrt->square roundtrip can exclude the k-th neighbor itself, so
	// only the first four are guaranteed back.
	if cnt < 4 {
		t.Fatalf("range at 5-NN radius found %d points, want >= 4", cnt)
	}
	// The whole query surface shares one tree.
	if s := idx.Stats(); s.TreeBuilds != 1 {
		t.Fatalf("TreeBuilds = %d, want 1", s.TreeBuilds)
	}
}

// TestKNNHugeK pins that a k beyond the live point count answers every
// live point, on a clean and on a mutated Index, without sizing anything
// by k (an unclamped MaxInt32 heap is an out-of-memory abort).
func TestKNNHugeK(t *testing.T) {
	idx, err := NewIndex(GenerateUniform(50, 2, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(n int) {
		t.Helper()
		all, err := idx.KNN(0, n)
		if err != nil || len(all) != n {
			t.Fatalf("KNN(0, %d) returned %d neighbors, err %v", n, len(all), err)
		}
		if huge, err := idx.KNN(0, math.MaxInt32); err != nil || !reflect.DeepEqual(huge, all) {
			t.Fatalf("KNN(0, MaxInt32) differs from KNN(0, %d) (err %v)", n, err)
		}
	}
	check(50)
	// An overlay row and a tombstone put KNN on the merging path.
	if _, err := idx.Insert(PointsFromSlices([][]float64{{0.5, 0.5}, {0.25, 0.75}})); err != nil {
		t.Fatal(err)
	}
	if err := idx.Delete([]int64{7}); err != nil {
		t.Fatal(err)
	}
	check(51)
}

// TestKNNTiesAtZero pins the k-NN doc on ties: equal distances come in a
// deterministic but unspecified order, so over 100 copies of one point
// KNN(50, 3) may leave out q itself. The ids pinned here are today's heap
// visit order; a tie-breaking rule would change them deliberately. With at
// most k points at distance 0, q is always included.
func TestKNNTiesAtZero(t *testing.T) {
	for _, f32 := range []bool{false, true} {
		idx, err := NewIndex(NewPoints(100, 2), &IndexOptions{Float32: f32})
		if err != nil {
			t.Fatal(err)
		}
		got, err := idx.KNN(50, 3)
		want := []Neighbor{{Idx: 1}, {Idx: 2}, {Idx: 0}}
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("f32=%v: KNN(50, 3) = %v, err %v; want %v", f32, got, err, want)
		}
		all, err := idx.KNN(50, 100)
		if err != nil || !slices.ContainsFunc(all, func(nb Neighbor) bool { return nb.Idx == 50 }) {
			t.Fatalf("f32=%v: KNN(50, 100) = %v, err %v; want q among them", f32, all, err)
		}
	}
}

func TestIndexValidation(t *testing.T) {
	pts := GenerateUniform(50, 2, 1)
	idx, err := NewIndex(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.HDBSCAN(0); err == nil {
		t.Fatal("minPts=0 accepted")
	}
	if _, err := idx.HDBSCAN(51); err == nil {
		t.Fatal("minPts>n accepted")
	}
	if _, err := idx.DBSCANStar(0, 1); err == nil {
		t.Fatal("DBSCANStar minPts=0 accepted")
	}
	if _, err := idx.DBSCAN(5, math.NaN()); err == nil {
		t.Fatal("NaN eps accepted")
	}
	if _, err := idx.OPTICS(5, -1); err == nil {
		t.Fatal("negative eps accepted")
	}
	if _, err := idx.KNN(-1, 3); err == nil {
		t.Fatal("negative point id accepted")
	}
	if _, err := idx.KNN(3, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := idx.OPTICS(51, math.Inf(1)); err == nil {
		t.Fatal("OPTICS minPts>n accepted")
	}
	if _, err := idx.RangeQuery(50, 1); err == nil {
		t.Fatal("out-of-range point id accepted")
	}
	if _, err := idx.EMSTWithAlgorithm(EMSTDelaunay2D); err != nil {
		t.Fatalf("2D Delaunay rejected: %v", err)
	}
	pts3 := GenerateUniform(50, 3, 1)
	idx3, err := NewIndex(pts3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx3.EMSTWithAlgorithm(EMSTDelaunay2D); err == nil {
		t.Fatal("3D Delaunay accepted")
	}
	if _, err := NewIndex(Points{Data: make([]float64, 5), N: 2, Dim: 3}, nil); err == nil {
		t.Fatal("mis-sized buffer accepted")
	}
	// DBSCAN with minPts > n: everything is noise, matching the one-shot.
	c, err := idx.DBSCANStar(51, 1)
	if err != nil || c.NumClusters != 0 || countNoise(c) != 50 {
		t.Fatalf("minPts>n DBSCAN*: %v, %d clusters, %d noise", err, c.NumClusters, countNoise(c))
	}
	want, err := DBSCANStar(pts, 51, 1)
	if err != nil || !reflect.DeepEqual(c, want) {
		t.Fatalf("minPts>n DBSCAN* differs from one-shot (err %v)", err)
	}
}

func TestIndexTrivialSizes(t *testing.T) {
	for _, n := range []int{0, 1, 2} {
		pts := GenerateUniform(n, 2, 3)
		idx, err := NewIndex(pts, nil)
		if err != nil {
			t.Fatal(err)
		}
		edges, err := idx.EMST()
		if err != nil || len(edges) != max(0, n-1) {
			t.Fatalf("n=%d: EMST %d edges, err %v", n, len(edges), err)
		}
		if n == 0 {
			continue
		}
		h, err := idx.HDBSCAN(1)
		if err != nil || h.N != n {
			t.Fatalf("n=%d: HDBSCAN err %v", n, err)
		}
		if c := h.ClustersAt(math.Inf(1)); c.NumClusters != 1 {
			t.Fatalf("n=%d: cut at +Inf gives %d clusters", n, c.NumClusters)
		}
	}
}
