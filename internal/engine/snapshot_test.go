package engine

import (
	"testing"

	"parclust/internal/hdbscan"
	"parclust/internal/metric"
)

// TestExportSeedStagesZeroRebuilds warms an engine, exports its stages into
// a fresh engine over the same points, and checks that every query is
// answered identically with all build counters still at zero — the
// warm-restart contract.
func TestExportSeedStagesZeroRebuilds(t *testing.T) {
	pts := randPoints(500, 2, 11)
	warm := New(pts, metric.L2{})
	testHier(warm, KindHDBSCAN, uint8(hdbscan.MemoGFK), 5)
	testHier(warm, KindHDBSCAN, uint8(hdbscan.MemoGFK), 9)
	testHier(warm, KindEMST, uint8(EMSTMemoGFK), 1)

	_, set := warm.SnapshotView()
	if set.Tree == nil || len(set.Cores) != 2 || len(set.MSTs) != 3 || len(set.Hiers) != 3 {
		t.Fatalf("export: tree=%v cores=%d msts=%d hiers=%d, want tree/2/3/3",
			set.Tree != nil, len(set.Cores), len(set.MSTs), len(set.Hiers))
	}

	cold := New(pts, metric.L2{})
	cold.SeedStages(set)

	for _, mp := range []int{5, 9} {
		wSt := testHier(warm, KindHDBSCAN, uint8(hdbscan.MemoGFK), mp)
		cSt := testHier(cold, KindHDBSCAN, uint8(hdbscan.MemoGFK), mp)
		if len(wSt.MST) != len(cSt.MST) {
			t.Fatalf("minPts=%d: MST length differs", mp)
		}
		for i := range wSt.MST {
			if wSt.MST[i] != cSt.MST[i] {
				t.Fatalf("minPts=%d: MST edge %d differs", mp, i)
			}
		}
		for i := range wSt.CoreDist {
			if wSt.CoreDist[i] != cSt.CoreDist[i] {
				t.Fatalf("minPts=%d: core distance %d differs", mp, i)
			}
		}
		w, c := wSt.CutAt(1.5), cSt.CutAt(1.5)
		if w.NumClusters != c.NumClusters || len(w.Labels) != len(c.Labels) {
			t.Fatalf("minPts=%d: cut shape differs", mp)
		}
		for i := range w.Labels {
			if w.Labels[i] != c.Labels[i] {
				t.Fatalf("minPts=%d: label %d differs", mp, i)
			}
		}
	}
	sl := testHier(cold, KindEMST, uint8(EMSTMemoGFK), 1)
	if sl.CoreDist != nil || sl.MinPts != 1 {
		t.Fatal("seeded single-linkage stage must have nil core distances and minPts=1")
	}

	c := cold.Counters()
	if c.TreeBuilds != 0 || c.CoreDistBuilds != 0 || c.MSTBuilds != 0 || c.DendrogramBuilds != 0 {
		t.Fatalf("seeded engine rebuilt stages: tree=%d core=%d mst=%d dendro=%d, want all 0",
			c.TreeBuilds, c.CoreDistBuilds, c.MSTBuilds, c.DendrogramBuilds)
	}
	if c.DendrogramHits != 3 {
		t.Fatalf("DendrogramHits = %d, want 3", c.DendrogramHits)
	}
}

// TestSeedStagesPartial seeds only upstream stages and checks downstream
// builds still run (and only them), and that present entries are never
// overwritten.
func TestSeedStagesPartial(t *testing.T) {
	pts := randPoints(300, 2, 12)
	warm := New(pts, metric.L2{})
	testHier(warm, KindHDBSCAN, uint8(hdbscan.MemoGFK), 4)
	_, set := warm.SnapshotView()

	// Drop the MSTs: the dependent hierarchy must not be seeded either.
	set.MSTs = nil
	cold := New(pts, metric.L2{})
	cold.SeedStages(set)
	testHier(cold, KindHDBSCAN, uint8(hdbscan.MemoGFK), 4)
	c := cold.Counters()
	if c.TreeBuilds != 0 || c.CoreDistBuilds != 0 {
		t.Fatalf("seeded upstream stages rebuilt: tree=%d core=%d", c.TreeBuilds, c.CoreDistBuilds)
	}
	if c.MSTBuilds != 1 || c.DendrogramBuilds != 1 {
		t.Fatalf("downstream builds: mst=%d dendro=%d, want 1/1", c.MSTBuilds, c.DendrogramBuilds)
	}

	// Seeding into an engine that already built the same stage keeps the
	// engine's copy.
	st := testHier(cold, KindHDBSCAN, uint8(hdbscan.MemoGFK), 4)
	_, set = warm.SnapshotView()
	cold.SeedStages(set)
	if got := testHier(cold, KindHDBSCAN, uint8(hdbscan.MemoGFK), 4); got != st {
		t.Fatal("SeedStages replaced an already-published stage")
	}
}
