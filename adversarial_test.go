package parclust

// Adversarial-input tests: degenerate geometry that historically breaks
// spatial data structures — duplicate points, collinear points, grids with
// massive tie groups, exponentially spaced points, single clusters with one
// far outlier. Every pipeline must stay correct (validated against dense
// oracles where affordable) rather than merely not crash.

import (
	"math"
	"testing"

	"parclust/internal/mst"
)

// TestEmptyPointSetHierarchies: the one-shot hierarchies over zero points
// are empty, not missing their dendrogram.
func TestEmptyPointSetHierarchies(t *testing.T) {
	pts := NewPoints(0, 2)
	for name, build := range map[string]func() (*Hierarchy, error){
		"hdbscan":        func() (*Hierarchy, error) { return HDBSCAN(pts, 1) },
		"single-linkage": func() (*Hierarchy, error) { return SingleLinkage(pts) },
		"approx-optics":  func() (*Hierarchy, error) { return ApproxOPTICS(pts, 1, 0.125) },
	} {
		h, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkEmptyHierarchy(t, h)
	}
}

func oracleEMSTWeight(pts Points) float64 {
	return mst.TotalWeight(mst.PrimDense(pts.N, func(i, j int32) float64 {
		return pts.Dist(int(i), int(j))
	}))
}

func checkAllEMST(t *testing.T, pts Points, label string) {
	t.Helper()
	want := oracleEMSTWeight(pts)
	algos := []EMSTAlgorithm{EMSTMemoGFK, EMSTGFK, EMSTNaive, EMSTBoruvka, EMSTWSPDBoruvka}
	if pts.Dim == 2 {
		algos = append(algos, EMSTDelaunay2D)
	}
	for _, algo := range algos {
		edges, err := emstWith(pts, algo, MetricL2)
		if err != nil {
			t.Fatalf("%s/%v: %v", label, algo, err)
		}
		if len(edges) != pts.N-1 {
			t.Fatalf("%s/%v: %d edges", label, algo, len(edges))
		}
		if got := mst.TotalWeight(edges); math.Abs(got-want) > 1e-6*(1+want) {
			t.Fatalf("%s/%v: weight %v, want %v", label, algo, got, want)
		}
	}
}

func TestAdversarialAllDuplicates(t *testing.T) {
	pts := NewPoints(100, 2) // all at the origin
	checkAllEMST(t, pts, "duplicates")
	h, err := HDBSCAN(pts, 10)
	if err != nil {
		t.Fatal(err)
	}
	if h.TotalWeight() != 0 {
		t.Fatalf("duplicate-point hierarchy weight %v", h.TotalWeight())
	}
	if c := h.ClustersAt(0); c.NumClusters != 1 {
		t.Fatalf("duplicates at eps=0: %d clusters", c.NumClusters)
	}
}

func TestAdversarialCollinear(t *testing.T) {
	n := 300
	pts := NewPoints(n, 2)
	for i := 0; i < n; i++ {
		pts.Data[2*i] = float64(i) * 1.5
	}
	checkAllEMST(t, pts, "collinear")
	h, err := HDBSCAN(pts, 5)
	if err != nil {
		t.Fatal(err)
	}
	plot := h.ReachabilityPlot()
	// On a line starting at the endpoint, the reachability plot visits the
	// points monotonically.
	for i := 1; i < len(plot); i++ {
		if plot[i].Idx != int32(i) {
			t.Fatalf("collinear plot out of order at %d (got %d)", i, plot[i].Idx)
		}
	}
}

func TestAdversarialGridTies(t *testing.T) {
	// 20x20 integer grid: every MST edge has weight exactly 1 and there are
	// thousands of tied candidate edges.
	side := 20
	pts := NewPoints(side*side, 2)
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			pts.Data[2*(i*side+j)] = float64(i)
			pts.Data[2*(i*side+j)+1] = float64(j)
		}
	}
	checkAllEMST(t, pts, "grid")
	// Dendrogram determinism under massive ties: two builds agree.
	h1, _ := HDBSCAN(pts, 4)
	h2, _ := HDBSCAN(pts, 4)
	p1, p2 := h1.ReachabilityPlot(), h2.ReachabilityPlot()
	for i := range p1 {
		if p1[i].Idx != p2[i].Idx {
			t.Fatalf("grid plot nondeterministic at %d", i)
		}
	}
}

func TestAdversarialExponentialSpacing(t *testing.T) {
	// Exponentially growing gaps: the dendrogram is a pure path (the
	// worst case called out in Section 4.2's warm-up analysis).
	n := 50
	pts := NewPoints(n, 1)
	x := 0.0
	for i := 0; i < n; i++ {
		pts.Data[i] = x
		x += math.Pow(1.7, float64(i))
	}
	checkAllEMST(t, pts, "exponential")
	h, err := SingleLinkage(pts)
	if err != nil {
		t.Fatal(err)
	}
	d := h.Dendrogram()
	// The dendrogram of a path with increasing weights is a caterpillar:
	// every internal node has at least one leaf child.
	for x := d.N; x < d.N+d.NumInternal(); x++ {
		l, r := d.Children(int32(x))
		if !d.IsLeaf(l) && !d.IsLeaf(r) {
			t.Fatal("expected caterpillar dendrogram for exponential spacing")
		}
	}
}

func TestAdversarialOutlier(t *testing.T) {
	// A tight cluster plus one extreme outlier: the outlier must be noise
	// at any reasonable radius and its MST edge must be the heaviest.
	n := 200
	pts := GenerateGaussianMixture(n-1, 3, 1, 3)
	all := NewPoints(n, 3)
	copy(all.Data, pts.Data)
	all.Data[(n-1)*3] = 1e7
	h, err := HDBSCAN(all, 10)
	if err != nil {
		t.Fatal(err)
	}
	heaviest := h.MST[len(h.MST)-1]
	if heaviest.U != int32(n-1) && heaviest.V != int32(n-1) {
		t.Fatal("heaviest MST edge does not touch the outlier")
	}
	c := h.ClustersAt(1e6)
	if c.Labels[n-1] != -1 {
		t.Fatal("outlier not classified as noise")
	}
}

func TestAdversarialTwoPoints(t *testing.T) {
	pts := PointsFromSlices([][]float64{{0, 0}, {3, 4}})
	edges, err := EMST(pts)
	if err != nil || len(edges) != 1 || math.Abs(edges[0].W-5) > 1e-12 {
		t.Fatalf("two-point EMST wrong: %v %v", edges, err)
	}
	h, err := HDBSCAN(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h.TotalWeight()-5) > 1e-12 {
		t.Fatalf("two-point hierarchy weight %v", h.TotalWeight())
	}
}

func TestAdversarialNonFiniteRejected(t *testing.T) {
	pts := NewPoints(10, 2)
	pts.Data[7] = math.NaN()
	if _, err := EMST(pts); err == nil {
		t.Fatal("NaN coordinate accepted")
	}
	pts.Data[7] = math.Inf(1)
	if _, err := HDBSCAN(pts, 2); err == nil {
		t.Fatal("Inf coordinate accepted")
	}
}
