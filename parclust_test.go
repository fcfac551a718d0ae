package parclust

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"parclust/internal/metric"
	"parclust/internal/mst"
	"parclust/internal/oracle"
)

// emstWith runs algo under m on a throwaway Index, as the one-shot EMST
// functions do for the default algorithm.
func emstWith(pts Points, algo EMSTAlgorithm, m Metric) ([]Edge, error) {
	idx, err := NewIndex(pts, &IndexOptions{Metric: m})
	if err != nil {
		return nil, err
	}
	return idx.EMSTWithAlgorithm(algo)
}

// hdbscanWith runs HDBSCAN* with algo on a throwaway Index.
func hdbscanWith(pts Points, minPts int, algo HDBSCANAlgorithm) (*Hierarchy, error) {
	idx, err := NewIndex(pts, nil)
	if err != nil {
		return nil, err
	}
	return idx.HDBSCANWithAlgorithm(minPts, algo)
}

func TestEMSTAlgorithmsAgreePublicAPI(t *testing.T) {
	pts := GenerateUniform(800, 2, 1)
	var weights []float64
	for _, algo := range []EMSTAlgorithm{EMSTMemoGFK, EMSTGFK, EMSTNaive, EMSTBoruvka, EMSTDelaunay2D} {
		edges, err := emstWith(pts, algo, MetricL2)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(edges) != pts.N-1 {
			t.Fatalf("%v: %d edges", algo, len(edges))
		}
		weights = append(weights, mst.TotalWeight(edges))
	}
	for _, w := range weights[1:] {
		if math.Abs(w-weights[0]) > 1e-6*(1+weights[0]) {
			t.Fatalf("EMST weights disagree: %v", weights)
		}
	}
}

func TestEMSTDelaunayRejectsNon2D(t *testing.T) {
	pts := GenerateUniform(100, 3, 2)
	if _, err := emstWith(pts, EMSTDelaunay2D, MetricL2); err == nil {
		t.Fatal("expected an error for 3D input to the Delaunay algorithm")
	}
}

func TestEMSTInvalidInput(t *testing.T) {
	bad := Points{Data: make([]float64, 5), N: 2, Dim: 3}
	if _, err := EMST(bad); err == nil {
		t.Fatal("expected an error for a mis-sized buffer")
	}
	if _, err := EMST(Points{N: 0, Dim: 0}); err == nil {
		t.Fatal("expected an error for zero dimension")
	}
	if edges, err := EMST(NewPoints(1, 2)); err != nil || len(edges) != 0 {
		t.Fatal("singleton input should yield an empty EMST")
	}
	if h, err := ApproxOPTICS(NewPoints(0, 2), 5, 0.1); err != nil || h.N != 0 || len(h.MST) != 0 {
		t.Fatalf("empty input: ApproxOPTICS = %+v, %v; want an empty hierarchy", h, err)
	}
	if _, err := ApproxOPTICS(GenerateGaussianMixture(50, 2, 2, 1), 5, math.NaN()); err == nil {
		t.Fatal("expected an error for rho = NaN")
	}
}

func TestHDBSCANEndToEnd(t *testing.T) {
	pts := GenerateGaussianMixture(600, 2, 3, 7)
	h, err := HDBSCAN(pts, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.MST) != pts.N-1 {
		t.Fatalf("MST has %d edges", len(h.MST))
	}
	want := mst.TotalWeight(mst.PrimDense(pts.N, oracle.MutualReachability(pts, 10, metric.L2{})))
	if math.Abs(h.TotalWeight()-want) > 1e-6*(1+want) {
		t.Fatalf("hierarchy weight %v, want %v", h.TotalWeight(), want)
	}
	plot := h.ReachabilityPlot()
	if len(plot) != pts.N || plot[0].Idx != h.Start {
		t.Fatal("reachability plot malformed")
	}
	// A generous radius groups everything into one cluster with no noise.
	all := h.ClustersAt(1e12)
	if all.NumClusters != 1 || h.NumNoiseAt(1e12) != 0 {
		t.Fatalf("huge eps: %d clusters, %d noise", all.NumClusters, h.NumNoiseAt(1e12))
	}
	// Radius zero: everything is noise (core distances are positive).
	if h.NumNoiseAt(0) != pts.N {
		t.Fatalf("eps=0: %d noise, want %d", h.NumNoiseAt(0), pts.N)
	}
}

func TestHDBSCANAlgorithmsAgree(t *testing.T) {
	pts := GenerateVarden(500, 3, 11)
	var weights []float64
	for _, algo := range []HDBSCANAlgorithm{HDBSCANMemoGFK, HDBSCANGanTao, HDBSCANGanTaoFull} {
		h, err := hdbscanWith(pts, 10, algo)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		weights = append(weights, h.TotalWeight())
	}
	for _, w := range weights[1:] {
		if math.Abs(w-weights[0]) > 1e-6*(1+weights[0]) {
			t.Fatalf("HDBSCAN* weights disagree: %v", weights)
		}
	}
}

func TestHDBSCANValidation(t *testing.T) {
	pts := GenerateUniform(50, 2, 1)
	if _, err := HDBSCAN(pts, 0); err == nil {
		t.Fatal("minPts=0 accepted")
	}
	if _, err := HDBSCAN(pts, 51); err == nil {
		t.Fatal("minPts>n accepted")
	}
}

func TestSingleLinkagePublicAPI(t *testing.T) {
	pts := GenerateGaussianMixture(400, 2, 4, 3)
	h, err := SingleLinkage(pts)
	if err != nil {
		t.Fatal(err)
	}
	if h.CoreDist != nil || h.MinPts != 1 {
		t.Fatal("single linkage should have no core distances")
	}
	d := h.Dendrogram()
	if d.NumInternal() != pts.N-1 {
		t.Fatal("dendrogram size wrong")
	}
	// Cutting just above the largest merge yields one cluster; cutting below
	// the smallest yields n.
	maxH, minH := 0.0, math.Inf(1)
	for _, hh := range d.Height {
		maxH = math.Max(maxH, hh)
		minH = math.Min(minH, hh)
	}
	if c := h.ClustersAt(maxH); c.NumClusters != 1 {
		t.Fatalf("cut at max height: %d clusters", c.NumClusters)
	}
	if c := h.ClustersAt(minH / 2); c.NumClusters != pts.N {
		t.Fatalf("cut below min height: %d clusters", c.NumClusters)
	}
}

func TestApproxOPTICSPublicAPI(t *testing.T) {
	pts := GenerateUniform(300, 2, 9)
	h, err := ApproxOPTICS(pts, 10, 0.125)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := HDBSCAN(pts, 10)
	if err != nil {
		t.Fatal(err)
	}
	if h.TotalWeight() > exact.TotalWeight()*1.125+1e-9 {
		t.Fatalf("approx weight %v too far above exact %v", h.TotalWeight(), exact.TotalWeight())
	}
	if _, err := ApproxOPTICS(pts, 10, 0); err == nil {
		t.Fatal("rho=0 accepted")
	}
}

func TestHDBSCANMinPtsOneMatchesSingleLinkageQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 2 + int(nRaw)%150
		pts := GenerateUniform(n, 2, seed)
		h1, err1 := HDBSCAN(pts, 1)
		h2, err2 := SingleLinkage(pts)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(h1.TotalWeight()-h2.TotalWeight()) < 1e-9*(1+h2.TotalWeight())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	pts := GenerateVarden(700, 2, 5)
	h1, _ := HDBSCAN(pts, 10)
	h2, _ := HDBSCAN(pts, 10)
	p1, p2 := h1.ReachabilityPlot(), h2.ReachabilityPlot()
	for i := range p1 {
		if p1[i].Idx != p2[i].Idx {
			t.Fatalf("reachability plot not deterministic at %d", i)
		}
	}
	e1, _ := EMST(pts)
	e2, _ := EMST(pts)
	if mst.TotalWeight(e1) != mst.TotalWeight(e2) {
		t.Fatal("EMST weight not deterministic")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := GenerateVarden(100, 3, 42)
	b := GenerateVarden(100, 3, 42)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("generator not deterministic")
		}
	}
	c := GenerateVarden(100, 3, 43)
	same := true
	for i := range a.Data {
		if a.Data[i] != c.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestWSPDBoruvkaPublicAPI(t *testing.T) {
	pts := GenerateUniform(500, 3, 13)
	want, err := EMST(pts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := emstWith(pts, EMSTWSPDBoruvka, MetricL2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mst.TotalWeight(got)-mst.TotalWeight(want)) > 1e-9*(1+mst.TotalWeight(want)) {
		t.Fatalf("WSPD-Boruvka weight %v, want %v", mst.TotalWeight(got), mst.TotalWeight(want))
	}
}

func TestDBSCANStarMatchesHierarchyCut(t *testing.T) {
	pts := GenerateGaussianMixture(400, 2, 3, 17)
	minPts := 8
	h, err := HDBSCAN(pts, minPts)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{1, 3, 10} {
		direct, err := DBSCANStar(pts, minPts, eps)
		if err != nil {
			t.Fatal(err)
		}
		cut := h.ClustersAt(eps)
		if direct.NumClusters != cut.NumClusters {
			t.Fatalf("eps=%v: direct %d clusters, hierarchy cut %d", eps, direct.NumClusters, cut.NumClusters)
		}
		// Co-membership must agree exactly.
		for i := 0; i < pts.N; i += 7 {
			for j := i + 1; j < pts.N; j += 11 {
				if (direct.Labels[i] == -1) != (cut.Labels[i] == -1) {
					t.Fatalf("eps=%v: noise disagreement at %d", eps, i)
				}
				if direct.Labels[i] == -1 || direct.Labels[j] == -1 {
					continue
				}
				if (direct.Labels[i] == direct.Labels[j]) != (cut.Labels[i] == cut.Labels[j]) {
					t.Fatalf("eps=%v: co-membership disagreement (%d,%d)", eps, i, j)
				}
			}
		}
	}
}

func TestExtractStableClustersPublicAPI(t *testing.T) {
	pts := GenerateGaussianMixture(600, 2, 4, 5)
	h, err := HDBSCAN(pts, 10)
	if err != nil {
		t.Fatal(err)
	}
	c := h.ExtractStableClusters(25)
	if c.NumClusters != 4 {
		t.Fatalf("stable extraction found %d clusters, want 4", c.NumClusters)
	}
}

func TestOPTICSPublicAPI(t *testing.T) {
	pts := GenerateUniform(200, 2, 19)
	order, err := OPTICS(pts, 5, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != pts.N {
		t.Fatalf("ordering has %d entries", len(order))
	}
	if _, err := OPTICS(pts, 0, 1); err == nil {
		t.Fatal("minPts=0 accepted")
	}
	if _, err := OPTICS(pts, 5, -1); err == nil {
		t.Fatal("negative eps accepted")
	}
}

func TestMSTEdgesNonDecreasing(t *testing.T) {
	// Hierarchy.MST documents Kruskal acceptance order: weights must be
	// non-decreasing (batches arrive in non-overlapping ascending ranges).
	pts := GenerateVarden(800, 3, 23)
	h, err := HDBSCAN(pts, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(h.MST); i++ {
		if h.MST[i].W < h.MST[i-1].W {
			t.Fatalf("MST edge %d weight %v below predecessor %v", i, h.MST[i].W, h.MST[i-1].W)
		}
	}
	edges, err := EMST(pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(edges); i++ {
		if edges[i].W < edges[i-1].W {
			t.Fatalf("EMST edge %d out of order", i)
		}
	}
}

func TestHierarchyInputNotMutated(t *testing.T) {
	// Dendrogram construction must not reorder the caller-visible MST.
	pts := GenerateUniform(400, 2, 29)
	h, err := HDBSCAN(pts, 5)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]Edge(nil), h.MST...)
	h.ReachabilityPlot()
	h.ExtractStableClusters(10)
	h.ClustersAt(1.0)
	for i := range snapshot {
		if h.MST[i] != snapshot[i] {
			t.Fatalf("MST mutated at %d", i)
		}
	}
}

func TestStatsPublicAPI(t *testing.T) {
	pts := GenerateUniform(2000, 3, 31)
	h, err := HDBSCAN(pts, 10)
	if err != nil {
		t.Fatal(err)
	}
	rep := h.BuildReport()
	for _, phase := range []Phase{mst.PhaseBuildTree, mst.PhaseCoreDist, mst.PhaseWSPD, mst.PhaseKruskal, mst.PhaseDendrogram} {
		if rep.Phases[phase] <= 0 {
			t.Fatalf("phase %v not timed", phase)
		}
	}
	if rep.Rounds == 0 || rep.BCCPComputed == 0 {
		t.Fatal("counters not recorded")
	}
	if got := fmt.Sprint(Phase(0), " ", mst.PhaseDendrogram); got != "build-tree dendrogram" {
		t.Fatalf("phase names %q", got)
	}
}

// TestParseAlgorithms: every EMSTAlgorithm, HDBSCANAlgorithm and Metric
// constant parses back from its wire name and aliases, in upper case too;
// "" is MemoGFK; and an unknown name, such as a bare "delaunay", errors.
func TestParseAlgorithms(t *testing.T) {
	checkParse(t, ParseEMSTAlgorithm, map[string]EMSTAlgorithm{
		"": EMSTMemoGFK, "memogfk": EMSTMemoGFK, "gfk": EMSTGFK, "naive": EMSTNaive,
		"boruvka": EMSTBoruvka, "delaunay2d": EMSTDelaunay2D, "wspdboruvka": EMSTWSPDBoruvka,
	}, "delaunay")
	checkParse(t, ParseHDBSCANAlgorithm, map[string]HDBSCANAlgorithm{
		"": HDBSCANMemoGFK, "memogfk": HDBSCANMemoGFK, "gantao": HDBSCANGanTao, "gantaofull": HDBSCANGanTaoFull,
	}, "approx")
	checkParse(t, ParseMetric, map[string]Metric{
		"l2": MetricL2, "euclidean": MetricL2, "sql2": MetricSqL2, "sqeuclidean": MetricSqL2,
		"l1": MetricL1, "manhattan": MetricL1, "linf": MetricLInf, "chebyshev": MetricLInf,
		"angular": MetricAngular, "cosine": MetricAngular,
	}, "mahalanobis")
}

// checkParse checks parse against the wire names, and that every constant
// from 0 up to the first one String does not name has a wire name.
func checkParse[A interface {
	~int
	String() string
}](t *testing.T, parse func(string) (A, error), wire map[string]A, unknown string) {
	t.Helper()
	named := map[A]bool{}
	for name, want := range wire {
		named[want] = true
		for _, s := range []string{name, strings.ToUpper(name)} {
			if got, err := parse(s); err != nil || got != want {
				t.Errorf("parse(%q) = (%v, %v), want %v", s, got, err, want)
			}
		}
	}
	for a := A(0); !strings.Contains(a.String(), "("); a++ {
		if !named[a] {
			t.Errorf("%v has no wire name", a)
		}
	}
	if _, err := parse(unknown); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", unknown)) {
		t.Errorf("parse(%q) error = %v, want one naming the input", unknown, err)
	}
}
