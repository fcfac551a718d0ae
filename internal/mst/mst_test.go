package mst

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"parclust/internal/geometry"
	"parclust/internal/kdtree"
	"parclust/internal/metric"
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

func euclidConfig(pts geometry.Points) Config {
	t := kdtree.BuildMetric(pts, 1, metric.L2{})
	return Config{Tree: t, Metric: kdtree.NewEuclidean(t), Sep: wspd.Geometric{S: 2}, Stats: NewStats()}
}

// checkSpanningTree validates tree invariants: n-1 edges, connected, acyclic.
func checkSpanningTree(t *testing.T, n int, edges []Edge) {
	t.Helper()
	if len(edges) != n-1 {
		t.Fatalf("got %d edges, want %d", len(edges), n-1)
	}
	uf := unionfind.New(n)
	for _, e := range edges {
		if e.U < 0 || int(e.V) >= n || e.U >= e.V {
			t.Fatalf("malformed edge %+v", e)
		}
		if !uf.Union(e.U, e.V) {
			t.Fatalf("edge %+v creates a cycle", e)
		}
	}
	if uf.Components() != 1 {
		t.Fatalf("result is not connected: %d components", uf.Components())
	}
}

func TestMakeEdgeCanonical(t *testing.T) {
	e := MakeEdge(5, 2, 1.5)
	if e.U != 2 || e.V != 5 {
		t.Fatalf("MakeEdge did not canonicalize: %+v", e)
	}
}

func TestLessIsTotalOrder(t *testing.T) {
	f := func(w1, w2 float32, u1, v1, u2, v2 uint8) bool {
		a := MakeEdge(int32(u1), int32(v1)+256, float64(w1))
		b := MakeEdge(int32(u2), int32(v2)+256, float64(w2))
		if Less(a, b) && Less(b, a) {
			return false
		}
		if a == b && (Less(a, b) || Less(b, a)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKruskalSmall(t *testing.T) {
	// triangle + pendant
	edges := []Edge{
		MakeEdge(0, 1, 1), MakeEdge(1, 2, 2), MakeEdge(0, 2, 3), MakeEdge(2, 3, 4),
	}
	out := Kruskal(4, edges)
	checkSpanningTree(t, 4, out)
	if TotalWeight(out) != 7 {
		t.Fatalf("MST weight %v, want 7", TotalWeight(out))
	}
}

func TestPrimDenseMatchesKruskal(t *testing.T) {
	pts := randPoints(60, 2, 3)
	dist := func(i, j int32) float64 { return pts.Dist(int(i), int(j)) }
	prim := PrimDense(pts.N, dist)
	var all []Edge
	for i := int32(0); i < int32(pts.N); i++ {
		for j := i + 1; j < int32(pts.N); j++ {
			all = append(all, MakeEdge(i, j, dist(i, j)))
		}
	}
	kr := Kruskal(pts.N, all)
	checkSpanningTree(t, pts.N, prim)
	if math.Abs(TotalWeight(prim)-TotalWeight(kr)) > 1e-9 {
		t.Fatalf("Prim %v vs Kruskal %v", TotalWeight(prim), TotalWeight(kr))
	}
}

// TestEMSTAlgorithmsAgree is the central cross-validation: every EMST
// algorithm must produce a spanning tree of the same total weight as the
// dense Prim oracle, across sizes and dimensions.
func TestEMSTAlgorithmsAgree(t *testing.T) {
	algos := map[string]func(Config) []Edge{
		"naive":   Naive,
		"gfk":     GFK,
		"memogfk": MemoGFK,
	}
	for _, n := range []int{2, 3, 17, 100, 500} {
		for _, dim := range []int{1, 2, 3, 5} {
			pts := randPoints(n, dim, int64(n*100+dim))
			want := TotalWeight(PrimDense(n, func(i, j int32) float64 { return pts.Dist(int(i), int(j)) }))
			for name, algo := range algos {
				cfg := euclidConfig(pts)
				got := algo(cfg)
				checkSpanningTree(t, n, got)
				if math.Abs(TotalWeight(got)-want) > 1e-6*(1+want) {
					t.Fatalf("%s n=%d dim=%d: weight %v, want %v", name, n, dim, TotalWeight(got), want)
				}
			}
			// Borůvka takes the tree directly.
			tr := kdtree.BuildMetric(pts, 1, metric.L2{})
			got := Boruvka(Config{Tree: tr, Stats: NewStats()})
			checkSpanningTree(t, n, got)
			if math.Abs(TotalWeight(got)-want) > 1e-6*(1+want) {
				t.Fatalf("boruvka n=%d dim=%d: weight %v, want %v", n, dim, TotalWeight(got), want)
			}
		}
	}
}

func TestEMSTQuickProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, dimRaw uint8) bool {
		n := 2 + int(nRaw)%120
		dim := 1 + int(dimRaw)%4
		pts := randPoints(n, dim, seed)
		want := TotalWeight(PrimDense(n, func(i, j int32) float64 { return pts.Dist(int(i), int(j)) }))
		got := TotalWeight(MemoGFK(euclidConfig(pts)))
		return math.Abs(got-want) <= 1e-6*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMutualReachabilityMST(t *testing.T) {
	for _, minPts := range []int{2, 5, 10} {
		pts := randPoints(250, 3, int64(minPts))
		tr := kdtree.BuildMetric(pts, 1, metric.L2{})
		cd := tr.CoreDistances(minPts)
		tr.AnnotateCoreDists(cd)
		metric := kdtree.NewMutualReachability(tr)
		// The edge metric runs in kd-order space; any bijective relabeling
		// leaves the MST weight unchanged, so Prim can run there too.
		dist := func(i, j int32) float64 { return metric.Dist(i, j) }
		want := TotalWeight(PrimDense(pts.N, dist))
		for name, sep := range map[string]wspd.Separation{
			"geometric": wspd.Geometric{S: 2},
			"mutual":    wspd.MutualUnreachable{},
		} {
			cfg := Config{Tree: tr, Metric: metric, Sep: sep, Stats: NewStats()}
			got := MemoGFK(cfg)
			checkSpanningTree(t, pts.N, got)
			if math.Abs(TotalWeight(got)-want) > 1e-6*(1+want) {
				t.Fatalf("%s minPts=%d: weight %v, want %v", name, minPts, TotalWeight(got), want)
			}
		}
	}
}

func TestDuplicatePointsMST(t *testing.T) {
	// Half the points coincide: MST must still be valid with zero edges.
	pts := randPoints(40, 2, 4)
	for i := 0; i < 20; i++ {
		copy(pts.Data[(i+20)*2:(i+21)*2], pts.Data[i*2:(i+1)*2])
	}
	want := TotalWeight(PrimDense(pts.N, func(i, j int32) float64 { return pts.Dist(int(i), int(j)) }))
	for _, algo := range []func(Config) []Edge{Naive, GFK, MemoGFK} {
		got := algo(euclidConfig(pts))
		checkSpanningTree(t, pts.N, got)
		if math.Abs(TotalWeight(got)-want) > 1e-9 {
			t.Fatalf("duplicate points: weight %v, want %v", TotalWeight(got), want)
		}
	}
}

// TestBoruvkaHugeCoordinates pins termination when squared distances
// overflow to +Inf on finite coordinates: the first candidate must still
// be recorded (best.U < 0 acceptance) so rounds keep merging, and the
// result is a spanning tree with +Inf cross-cluster edges.
func TestBoruvkaHugeCoordinates(t *testing.T) {
	pts := geometry.FromSlices([][]float64{
		{-1e160, 0}, {-1e160, 1}, {1e160, 0}, {1e160, 1},
	})
	tr := kdtree.BuildMetric(pts, 1, metric.L2{})
	got := Boruvka(Config{Tree: tr})
	checkSpanningTree(t, pts.N, got)
	if !math.IsInf(got[len(got)-1].W, 1) {
		t.Fatalf("expected an overflowed +Inf bridge edge, got %v", got[len(got)-1].W)
	}
}

func TestTinyInputs(t *testing.T) {
	for _, n := range []int{0, 1} {
		pts := randPoints(n, 2, 1)
		if got := MemoGFK(euclidConfig(pts)); len(got) != 0 {
			t.Fatalf("n=%d: expected no edges, got %d", n, len(got))
		}
	}
}

func TestStatsCounters(t *testing.T) {
	pts := randPoints(400, 3, 21)
	cfgFull := euclidConfig(pts)
	GFK(cfgFull)
	cfgMemo := euclidConfig(pts)
	MemoGFK(cfgMemo)
	if cfgFull.Stats.PairsMaterialized == 0 || cfgMemo.Stats.PairsMaterialized == 0 {
		t.Fatal("stats did not record materialized pairs")
	}
	// The memory optimization's peak residency must not exceed the full
	// WSPD materialization (Section 3.1.3 / Section 5 memory study).
	if cfgMemo.Stats.PeakPairsResident > cfgFull.Stats.PeakPairsResident {
		t.Fatalf("MemoGFK peak %d exceeds GFK peak %d",
			cfgMemo.Stats.PeakPairsResident, cfgFull.Stats.PeakPairsResident)
	}
	if cfgMemo.Stats.Rounds == 0 {
		t.Fatal("MemoGFK recorded no rounds")
	}
	// BCCP calls are counted per parallel chunk. GFK caches each pair's
	// BCCP, so it computes at most one per pair; Naive and WSPD-Borůvka
	// compute exactly one per pair.
	if b := cfgFull.Stats.BCCPComputed; b == 0 || b > cfgFull.Stats.PairsMaterialized {
		t.Fatalf("GFK computed %d BCCPs over %d pairs", b, cfgFull.Stats.PairsMaterialized)
	}
	for _, algo := range []func(Config) []Edge{Naive, WSPDBoruvka} {
		cfg := euclidConfig(pts)
		algo(cfg)
		if cfg.Stats.BCCPComputed != cfg.Stats.PairsMaterialized {
			t.Fatalf("%d BCCPs over %d pairs, want one per pair", cfg.Stats.BCCPComputed, cfg.Stats.PairsMaterialized)
		}
	}
}

func TestClusteredData(t *testing.T) {
	// Two tight, far-apart clusters: exactly one MST edge crosses between
	// them and it must be the bridge.
	rng := rand.New(rand.NewSource(31))
	n := 100
	pts := geometry.NewPoints(n, 2)
	for i := 0; i < n; i++ {
		base := 0.0
		if i >= n/2 {
			base = 1e6
		}
		pts.Data[2*i] = base + rng.Float64()
		pts.Data[2*i+1] = rng.Float64()
	}
	edges := MemoGFK(euclidConfig(pts))
	crossing := 0
	for _, e := range edges {
		if (int(e.U) < n/2) != (int(e.V) < n/2) {
			crossing++
			if e.W < 1e6-10 {
				t.Fatalf("crossing edge too short: %v", e.W)
			}
		}
	}
	if crossing != 1 {
		t.Fatalf("%d crossing edges, want 1", crossing)
	}
}

func TestWSPDBoruvkaAgreesWithOracle(t *testing.T) {
	for _, n := range []int{2, 17, 200, 800} {
		for _, dim := range []int{2, 4} {
			pts := randPoints(n, dim, int64(n+dim))
			want := TotalWeight(PrimDense(n, func(i, j int32) float64 { return pts.Dist(int(i), int(j)) }))
			got := WSPDBoruvka(euclidConfig(pts))
			checkSpanningTree(t, n, got)
			if math.Abs(TotalWeight(got)-want) > 1e-6*(1+want) {
				t.Fatalf("n=%d dim=%d: weight %v, want %v", n, dim, TotalWeight(got), want)
			}
		}
	}
}

func TestWSPDBoruvkaMutualMetric(t *testing.T) {
	pts := randPoints(300, 3, 99)
	tr := kdtree.BuildMetric(pts, 1, metric.L2{})
	cd := tr.CoreDistances(10)
	tr.AnnotateCoreDists(cd)
	metric := kdtree.NewMutualReachability(tr)
	want := TotalWeight(PrimDense(pts.N, metric.Dist))
	got := WSPDBoruvka(Config{Tree: tr, Metric: metric, Sep: wspd.MutualUnreachable{}, Stats: NewStats()})
	checkSpanningTree(t, pts.N, got)
	if math.Abs(TotalWeight(got)-want) > 1e-6*(1+want) {
		t.Fatalf("mutual-metric WSPD-Boruvka weight %v, want %v", TotalWeight(got), want)
	}
}

// TestLinearBetaSchedule checks the ablation path: the Chatterjee-style
// linear beta growth must still be correct, just with more rounds.
func TestLinearBetaSchedule(t *testing.T) {
	pts := randPoints(300, 2, 55)
	want := TotalWeight(PrimDense(pts.N, func(i, j int32) float64 { return pts.Dist(int(i), int(j)) }))
	for _, algo := range []func(Config) []Edge{GFK, MemoGFK} {
		cfg := euclidConfig(pts)
		cfg.LinearBeta = true
		got := algo(cfg)
		checkSpanningTree(t, pts.N, got)
		if math.Abs(TotalWeight(got)-want) > 1e-6*(1+want) {
			t.Fatalf("linear beta: weight %v, want %v", TotalWeight(got), want)
		}
	}
	// Linear growth must use at least as many rounds as doubling.
	cfgLin := euclidConfig(pts)
	cfgLin.LinearBeta = true
	MemoGFK(cfgLin)
	cfgDbl := euclidConfig(pts)
	MemoGFK(cfgDbl)
	if cfgLin.Stats.Rounds < cfgDbl.Stats.Rounds {
		t.Fatalf("linear schedule used fewer rounds (%d) than doubling (%d)",
			cfgLin.Stats.Rounds, cfgDbl.Stats.Rounds)
	}
}

func TestWorkspaceReuseAcrossShrinkingRuns(t *testing.T) {
	// One pooled Workspace serving runs of decreasing size must terminate
	// and stay correct: a recycled union-find larger than the active point
	// count previously kept its old component count, so Borůvka's
	// Components() <= 1 round check never fired (infinite rounds).
	ws := NewWorkspace()
	for _, n := range []int{300, 120, 50, 7, 2} {
		pts := randPoints(n, 2, int64(n))
		tr := kdtree.BuildMetric(pts, 1, metric.L2{})
		got := Boruvka(Config{Tree: tr, WS: ws})
		checkSpanningTree(t, n, got)
		want := PrimDense(n, func(i, j int32) float64 { return pts.Dist(int(i), int(j)) })
		if w, ww := TotalWeight(got), TotalWeight(want); math.Abs(w-ww) > 1e-9*(1+ww) {
			t.Fatalf("n=%d: reused-workspace Borůvka weight %v, want %v", n, w, ww)
		}
		cfg := Config{Tree: tr, Metric: kdtree.NewEuclidean(tr), Sep: wspd.Geometric{S: 2}, WS: ws}
		got = WSPDBoruvka(cfg)
		checkSpanningTree(t, n, got)
		cfg.WS = ws
		got = MemoGFK(cfg)
		checkSpanningTree(t, n, got)
	}
}
