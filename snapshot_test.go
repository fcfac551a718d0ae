package parclust

import (
	"bytes"
	"testing"
)

// TestIndexSnapshotRoundTrip warms an Index across the public query
// surface, snapshots it, and checks the restored Index answers everything
// byte-identically with zero stage rebuilds: flat cuts, stable clusters,
// EMST and k-NN. Besides three metrics on a small mixture, it restores
// 2D SS-varden sets of 10,000 and (without -short) 100,000 points.
func TestIndexSnapshotRoundTrip(t *testing.T) {
	type roundTrip struct {
		pts    Points
		m      Metric
		minPts int
	}
	mix := GenerateGaussianMixture(800, 3, 4, 42)
	cases := []roundTrip{{mix, MetricL2, 5}, {mix, MetricL1, 5}, {mix, MetricAngular, 5}}
	for _, n := range []int{10_000, 100_000} {
		if n > 10_000 && testing.Short() {
			continue
		}
		cases = append(cases, roundTrip{GenerateVarden(n, 2, 42), MetricL2, 10})
	}
	for _, c := range cases {
		pts, m, minPts := c.pts, c.m, c.minPts
		ix, err := NewIndex(pts, &IndexOptions{Metric: m})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ix.HDBSCAN(minPts); err != nil {
			t.Fatal(err)
		}
		if _, err := ix.EMST(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ix.WriteSnapshot(&buf); err != nil {
			t.Fatalf("%v: write: %v", m, err)
		}
		back, det, err := ReadSnapshotDetails(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%v: read: %v", m, err)
		}
		if det.Metric != m || det.N != pts.N || det.Dim != pts.Dim || len(det.SkippedStages) != 0 {
			t.Fatalf("%v: details %+v", m, det)
		}
		// tree + core(minPts) + HDBSCAN MST + EMST + HDBSCAN hierarchy
		if det.Stages != 5 {
			t.Fatalf("%v: %d stages, want 5", m, det.Stages)
		}

		wantH, err := ix.HDBSCAN(minPts)
		if err != nil {
			t.Fatal(err)
		}
		gotH, err := back.HDBSCAN(minPts)
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range []struct {
			name      string
			want, got Clustering
		}{
			{"flat cut", wantH.ClustersAt(1.2), gotH.ClustersAt(1.2)},
			{"stable clusters", wantH.ExtractStableClusters(minPts), gotH.ExtractStableClusters(minPts)},
		} {
			if cut.want.NumClusters != cut.got.NumClusters {
				t.Fatalf("%v n=%d: %s count %d vs %d", m, pts.N, cut.name, cut.got.NumClusters, cut.want.NumClusters)
			}
			for i := range cut.want.Labels {
				if cut.want.Labels[i] != cut.got.Labels[i] {
					t.Fatalf("%v n=%d: %s label %d differs after restore", m, pts.N, cut.name, i)
				}
			}
		}
		we, _ := ix.EMST()
		ge, _ := back.EMST()
		if len(we) != len(ge) {
			t.Fatalf("%v: EMST edge counts differ", m)
		}
		for i := range we {
			if we[i] != ge[i] {
				t.Fatalf("%v: EMST edge %d differs", m, i)
			}
		}
		wk, _ := ix.KNN(0, 5)
		gk, _ := back.KNN(0, 5)
		for i := range wk {
			if wk[i] != gk[i] {
				t.Fatalf("%v: KNN result %d differs", m, i)
			}
		}

		s := back.Stats()
		if s.TreeBuilds != 0 || s.CoreDistBuilds != 0 || s.MSTBuilds != 0 || s.DendrogramBuilds != 0 {
			t.Fatalf("%v: restored Index rebuilt stages: %+v", m, s)
		}
	}
}

// TestIndexSnapshotSignature checks signature stability and growth.
func TestIndexSnapshotSignature(t *testing.T) {
	pts := GenerateUniform(200, 2, 7)
	ix, err := NewIndex(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	sig0 := ix.SnapshotSignature()
	if sig0.Chunks != 1 || sig0.ContentHash == "" {
		t.Fatalf("cold signature %+v", sig0)
	}
	if _, err := ix.HDBSCAN(4); err != nil {
		t.Fatal(err)
	}
	sig1 := ix.SnapshotSignature()
	if sig1.ContentHash != sig0.ContentHash {
		t.Fatal("content hash changed without the points changing")
	}
	// tree + core + mst + hier joined the points chunk.
	if sig1.Chunks != 5 {
		t.Fatalf("warm signature has %d chunks, want 5", sig1.Chunks)
	}
	// A different dataset hashes differently.
	other, err := NewIndex(GenerateUniform(200, 2, 8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if other.SnapshotSignature().ContentHash == sig0.ContentHash {
		t.Fatal("distinct datasets share a content hash")
	}

	// The signature matches what a written snapshot's header reports.
	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, det, err := ReadSnapshotDetails(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if det.Stages+1 != sig1.Chunks {
		t.Fatalf("header has %d chunks, signature says %d", det.Stages+1, sig1.Chunks)
	}
	if got := back.SnapshotSignature(); got != sig1 {
		t.Fatalf("restored signature %+v, want %+v", got, sig1)
	}
}

// TestIndexSnapshotGarbage checks the public API rejects damaged streams.
func TestIndexSnapshotGarbage(t *testing.T) {
	if _, err := ReadSnapshot(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage accepted")
	}
	ix, err := NewIndex(GenerateUniform(50, 2, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes()[:buf.Len()/3])); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}
