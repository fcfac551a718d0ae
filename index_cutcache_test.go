package parclust

import (
	"math"
	"testing"
)

// TestIndexCutCache pins the public face of the per-stage cut-result
// cache: repeated ClustersAt radii on an Index-backed hierarchy are cache
// hits sharing one labels slice, the CutBuilds/CutHits counters report
// them, and ApproxBytes grows as cut results are retained.
func TestIndexCutCache(t *testing.T) {
	pts := GenerateGaussianMixture(600, 2, 3, 11)
	idx, err := NewIndex(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Metric().String() != MetricL2.String() {
		t.Fatalf("default metric = %s, want %s", idx.Metric(), MetricL2)
	}
	base := idx.ApproxBytes()
	if base <= 0 {
		t.Fatalf("ApproxBytes = %d", base)
	}

	h, err := idx.HDBSCANWithAlgorithm(5, HDBSCANGanTao)
	if err != nil {
		t.Fatal(err)
	}
	a := h.ClustersAt(1.5)
	b := h.ClustersAt(1.5)
	if &a.Labels[0] != &b.Labels[0] {
		t.Fatal("repeated cut did not share the cached labels slice")
	}
	if s := idx.Stats(); s.CutBuilds != 1 || s.CutHits != 1 {
		t.Fatalf("cut counters = %d builds / %d hits, want 1/1", s.CutBuilds, s.CutHits)
	}
	if grown := idx.ApproxBytes(); grown <= base {
		t.Fatalf("ApproxBytes %d -> %d, want growth from the cut cache", base, grown)
	}

	// A second hierarchy handle over the same (minPts, algo) shares the
	// stage and therefore the cut cache.
	h2, err := idx.HDBSCANWithAlgorithm(5, HDBSCANGanTao)
	if err != nil {
		t.Fatal(err)
	}
	c := h2.ClustersAt(1.5)
	if &c.Labels[0] != &a.Labels[0] {
		t.Fatal("equal query did not share the cached cut result")
	}

	// The cached result agrees with a hierarchy built outside any Index
	// (the non-stage-backed ClustersAt path).
	plain, err := hdbscanWith(pts, 5, HDBSCANGanTao)
	if err != nil {
		t.Fatal(err)
	}
	want := plain.ClustersAt(1.5)
	if want.NumClusters != a.NumClusters {
		t.Fatalf("cached NumClusters = %d, want %d", a.NumClusters, want.NumClusters)
	}
	for i := range want.Labels {
		if a.Labels[i] != want.Labels[i] {
			t.Fatalf("cached label[%d] = %d, want %d", i, a.Labels[i], want.Labels[i])
		}
	}

	// A NaN radius admits no comparison at all — no point is noise, no
	// edge merges, so every point is a singleton cluster — and the result
	// is never cached (a NaN map key could not be looked up again).
	nan := h.ClustersAt(math.NaN())
	if nan.NumClusters != pts.N {
		t.Fatalf("NaN cut found %d clusters, want %d singletons", nan.NumClusters, pts.N)
	}
	bytesBefore := idx.ApproxBytes()
	h.ClustersAt(math.NaN())
	if got := idx.ApproxBytes(); got != bytesBefore {
		t.Fatalf("NaN cut changed ApproxBytes: %d -> %d", bytesBefore, got)
	}

	// CoreDistances rides the same memoized stage as the hierarchy.
	cd, err := idx.CoreDistances(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cd) != pts.N {
		t.Fatalf("CoreDistances returned %d values for %d points", len(cd), pts.N)
	}
	if s := idx.Stats(); s.CoreDistBuilds != 1 {
		t.Fatalf("CoreDistBuilds = %d after CoreDistances, want 1 (shared stage)", s.CoreDistBuilds)
	}
	if _, err := idx.CoreDistances(0); err == nil {
		t.Fatal("CoreDistances(0) did not error")
	}
	if _, err := idx.CoreDistances(pts.N + 1); err == nil {
		t.Fatal("CoreDistances(n+1) did not error")
	}
}

// TestHDBSCANAlgorithmString pins the wire names the daemon reports.
func TestHDBSCANAlgorithmString(t *testing.T) {
	cases := map[HDBSCANAlgorithm]string{
		HDBSCANMemoGFK:       "HDBSCAN*-MemoGFK",
		HDBSCANGanTao:        "HDBSCAN*-GanTao",
		HDBSCANGanTaoFull:    "HDBSCAN*-GanTao-Full",
		HDBSCANAlgorithm(99): "HDBSCANAlgorithm(99)",
	}
	for algo, want := range cases {
		if got := algo.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(algo), got, want)
		}
	}
}
