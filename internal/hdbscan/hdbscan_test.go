package hdbscan

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"parclust/internal/geometry"
	"parclust/internal/kdtree"
	"parclust/internal/metric"
	"parclust/internal/mst"
	"parclust/internal/oracle"
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

// mstOf runs the HDBSCAN* MST stage the way the engine does: over a
// leaf-size-1 tree annotated with the core distances for minPts.
func mstOf(pts geometry.Points, minPts int, algo Algorithm, stats *mst.Stats) []mst.Edge {
	tr := kdtree.BuildMetric(pts, 1, metric.L2{})
	tr.AnnotateCoreDists(tr.CoreDistances(minPts))
	return MSTOnAnnotatedTree(tr, algo, metric.L2{}, nil, stats)
}

func checkSpanningTree(t *testing.T, n int, edges []mst.Edge) {
	t.Helper()
	if len(edges) != n-1 {
		t.Fatalf("got %d edges, want %d", len(edges), n-1)
	}
	uf := unionfind.New(n)
	for _, e := range edges {
		if !uf.Union(e.U, e.V) {
			t.Fatalf("edge %+v creates a cycle", e)
		}
	}
}

// TestBuildMatchesDenseOracle: all three variants must produce an MST of
// the mutual reachability graph with the exact dense-Prim weight.
func TestBuildMatchesDenseOracle(t *testing.T) {
	for _, minPts := range []int{1, 2, 3, 5, 10} {
		for _, n := range []int{2, 20, 150, 400} {
			if minPts > n {
				continue
			}
			pts := randPoints(n, 3, int64(n*10+minPts))
			want := mst.TotalWeight(mst.PrimDense(n, oracle.MutualReachability(pts, minPts, metric.L2{})))
			for _, algo := range []Algorithm{MemoGFK, GanTao, GanTaoFull} {
				edges := mstOf(pts, minPts, algo, nil)
				checkSpanningTree(t, n, edges)
				got := mst.TotalWeight(edges)
				if math.Abs(got-want) > 1e-6*(1+want) {
					t.Fatalf("algo=%d minPts=%d n=%d: weight %v, want %v", algo, minPts, n, got, want)
				}
			}
		}
	}
}

// TestMinPtsOneEqualsEMST: with minPts = 1 the mutual reachability distance
// is the Euclidean distance, so the HDBSCAN* MST weight equals the EMST
// weight (Section 2.1).
func TestMinPtsOneEqualsEMST(t *testing.T) {
	pts := randPoints(300, 2, 3)
	tr := kdtree.BuildMetric(pts, 1, metric.L2{})
	emst := mst.MemoGFK(mst.Config{Tree: tr, Metric: kdtree.NewEuclidean(tr), Sep: wspd.Geometric{S: 2}})
	got := mst.TotalWeight(mstOf(pts, 1, MemoGFK, nil))
	if math.Abs(mst.TotalWeight(emst)-got) > 1e-9 {
		t.Fatalf("minPts=1 MST weight %v differs from EMST %v", got, mst.TotalWeight(emst))
	}
}

// TestTheoremD1: for minPts <= 3, the EMST is an MST of the mutual
// reachability graph (Appendix D), i.e. its weight under d_m equals the
// HDBSCAN* MST weight.
func TestTheoremD1(t *testing.T) {
	for _, minPts := range []int{2, 3} {
		pts := randPoints(200, 2, int64(minPts*7))
		tr := kdtree.BuildMetric(pts, 1, metric.L2{})
		emst := mst.MemoGFK(mst.Config{Tree: tr, Metric: kdtree.NewEuclidean(tr), Sep: wspd.Geometric{S: 2}})
		dm := oracle.MutualReachability(pts, minPts, metric.L2{})
		var emstUnderDM float64
		for _, e := range emst {
			emstUnderDM += dm(e.U, e.V)
		}
		got := mst.TotalWeight(mstOf(pts, minPts, MemoGFK, nil))
		if math.Abs(emstUnderDM-got) > 1e-6 {
			t.Fatalf("minPts=%d: EMST weight under d_m %v != HDBSCAN* MST weight %v",
				minPts, emstUnderDM, got)
		}
	}
}

func TestFigure1WorkedExample(t *testing.T) {
	// A worked example in the spirit of the paper's Figure 1 (2D,
	// minPts = 3), with coordinates chosen so the key caption facts hold:
	// b is a's third nearest neighbor (including a itself) at distance 4,
	// so cd(a) = 4; and cd(d) = d(d,b) = sqrt(10).
	pts := geometry.FromSlices([][]float64{
		{0, 0},   // a
		{4, 0},   // b
		{7, 0},   // c
		{1, 1},   // d
		{10, 10}, // e
		{11, 10}, // f
		{10, 11}, // g
		{11, 11}, // h
		{30, 30}, // i
	})
	minPts := 3
	cd := oracle.CoreDistances(pts, minPts, metric.L2{})
	if math.Abs(cd[0]-4) > 1e-9 {
		t.Fatalf("cd(a)=%v, want 4", cd[0])
	}
	if math.Abs(cd[3]-math.Sqrt(10)) > 1e-9 {
		t.Fatalf("cd(d)=%v, want sqrt(10)", cd[3])
	}
	edges := mstOf(pts, minPts, MemoGFK, nil)
	checkSpanningTree(t, pts.N, edges)
	want := mst.TotalWeight(mst.PrimDense(pts.N, oracle.MutualReachability(pts, minPts, metric.L2{})))
	if math.Abs(mst.TotalWeight(edges)-want) > 1e-9 {
		t.Fatalf("figure-1 MST weight %v, want %v", mst.TotalWeight(edges), want)
	}
	// The edge (a,d) must have weight max{cd(a), cd(d), d(a,d)} = 4 if present;
	// regardless, every MST edge weight must equal its mutual reachability.
	dm := oracle.MutualReachability(pts, minPts, metric.L2{})
	for _, e := range edges {
		if math.Abs(e.W-dm(e.U, e.V)) > 1e-9 {
			t.Fatalf("edge %+v weight differs from d_m=%v", e, dm(e.U, e.V))
		}
	}
}

// TestPairCounts: the disjunctive mutual-unreachability separation yields
// no more pairs than the classic geometric one on the same annotated tree
// (Section 5's "2.5-10.29x fewer pairs").
func TestPairCounts(t *testing.T) {
	pts := randPoints(1000, 3, 17)
	tr := kdtree.BuildMetric(pts, 1, metric.L2{})
	tr.AnnotateCoreDists(tr.CoreDistances(10))
	geo, mu := wspd.Count(tr, wspd.Geometric{S: 2}), wspd.Count(tr, wspd.MutualUnreachable{})
	if mu > geo {
		t.Fatalf("new separation produced more pairs (%d > %d)", mu, geo)
	}
	if geo == 0 || mu == 0 {
		t.Fatal("pair counts are zero")
	}
}

func TestBruteForceCoreDistancesQuick(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := 2 + int(nRaw)%60
		k := 1 + int(kRaw)%n
		pts := randPoints(n, 2, seed)
		cd := oracle.CoreDistances(pts, k, metric.L2{})
		tr := kdtree.BuildMetric(pts, 1, metric.L2{})
		cd2 := tr.CoreDistances(k)
		for i := range cd {
			if math.Abs(cd[i]-cd2[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestApproxOPTICSBounds: every candidate edge weight satisfies
// d_m/(1+rho) <= w <= d_m, so the approximate MST weight is at least
// exact/(1+rho); the Gan-Tao construction guarantees the graph contains a
// spanning tree within a (1+rho) factor of the exact MST.
func TestApproxOPTICSBounds(t *testing.T) {
	for _, rho := range []float64{0.125, 0.5, 1} {
		pts := randPoints(250, 2, int64(rho*100))
		minPts := 5
		exact := mst.TotalWeight(mst.PrimDense(pts.N, oracle.MutualReachability(pts, minPts, metric.L2{})))
		res := ApproxOPTICS(pts, minPts, rho, nil)
		checkSpanningTree(t, pts.N, res.MST)
		got := mst.TotalWeight(res.MST)
		if got > exact*(1+rho)+1e-9 {
			t.Fatalf("rho=%v: approx weight %v exceeds exact*(1+rho)=%v", rho, got, exact*(1+rho))
		}
		if got < exact/(1+rho)-1e-9 {
			t.Fatalf("rho=%v: approx weight %v below exact/(1+rho)=%v", rho, got, exact/(1+rho))
		}
	}
}

func TestApproxOPTICSEdgeBudget(t *testing.T) {
	// Appendix C: O(n * minPts^2) edges. Check the constant is sane.
	pts := randPoints(2000, 2, 23)
	minPts := 5
	stats := mst.NewStats()
	ApproxOPTICS(pts, minPts, 0.125, stats)
	maxEdges := int64(40 * pts.N * minPts * minPts)
	if stats.PeakPairsResident > maxEdges {
		t.Fatalf("approx OPTICS generated %d candidate edges, budget %d",
			stats.PeakPairsResident, maxEdges)
	}
}

// TestStatsPhases: the HDBSCAN* MemoGFK stage times exactly its own
// phases, WSPD, the per-round component refresh and Kruskal, so its report
// covers the MST's wall time. The tree and core-distance phases belong to the
// engine (the root package's BuildReport tests check them), and MemoGFK
// runs no other algorithm's phases.
func TestStatsPhases(t *testing.T) {
	stats := mst.NewStats()
	mstOf(randPoints(500, 2, 29), 10, MemoGFK, stats)
	for p := range mst.NumPhases {
		if ran := p == mst.PhaseWSPD || p == mst.PhaseRefresh || p == mst.PhaseKruskal; (stats.Phases[p] > 0) != ran {
			t.Fatalf("phase %v timed %v, want timed=%v", p, stats.Phases[p], ran)
		}
	}
}
