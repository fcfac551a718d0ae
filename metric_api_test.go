package parclust

// Public-API tests for the pluggable metric kernels: parsing, validation
// at the API boundary (non-finite coordinates, zero vectors for angular),
// cross-metric agreement with the brute-force oracle, and cross-layer
// consistency between the flat DBSCAN* baseline and the hierarchy cut
// under non-Euclidean kernels.

import (
	"math"
	"testing"

	"parclust/internal/metric"
	"parclust/internal/mst"
	"parclust/internal/oracle"
)

func allMetrics() []Metric { return Metrics() }

func TestParseMetricRoundTrip(t *testing.T) {
	// Pin each public constant to its kernel name: the enum order must
	// match metric.All().
	want := map[Metric]string{
		MetricL2: "l2", MetricSqL2: "sql2", MetricL1: "l1",
		MetricLInf: "linf", MetricAngular: "angular",
	}
	for m, name := range want {
		if m.String() != name {
			t.Fatalf("constant %d stringifies to %q, want %q", int(m), m.String(), name)
		}
	}
	for _, m := range allMetrics() {
		got, err := ParseMetric(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMetric(%q) = (%v, %v)", m.String(), got, err)
		}
	}
	if _, err := ParseMetric("mahalanobis"); err == nil {
		t.Fatal("ParseMetric accepted an unknown kernel")
	}
}

func TestEMSTMetricMatchesOracle(t *testing.T) {
	pts := GenerateUniform(300, 3, 11)
	for _, m := range allMetrics() {
		for _, algo := range []EMSTAlgorithm{EMSTMemoGFK, EMSTGFK, EMSTNaive, EMSTBoruvka, EMSTWSPDBoruvka} {
			edges, err := emstWith(pts, algo, m)
			if err != nil {
				t.Fatalf("%v/%v: %v", m, algo, err)
			}
			if len(edges) != pts.N-1 {
				t.Fatalf("%v/%v: got %d edges", m, algo, len(edges))
			}
			// The oracle runs on the same prepared input the pipeline saw.
			prepared, kern, err := prepareMetric(pts, m)
			if err != nil {
				t.Fatal(err)
			}
			want := mst.TotalWeight(oracle.PrimMST(prepared.N, oracle.Dist(prepared, kern)))
			if got := mst.TotalWeight(edges); math.Abs(got-want) > 1e-9*(1+want) {
				t.Fatalf("%v/%v: weight %v, oracle %v", m, algo, got, want)
			}
		}
	}
}

func TestMetricEntryPointsRejectNonFinite(t *testing.T) {
	bad := []Points{
		PointsFromSlices([][]float64{{1, 2}, {math.NaN(), 0}}),
		PointsFromSlices([][]float64{{1, 2}, {math.Inf(1), 0}}),
		PointsFromSlices([][]float64{{1, 2}, {0, math.Inf(-1)}}),
	}
	for _, pts := range bad {
		for _, m := range allMetrics() {
			if _, err := EMSTMetric(pts, m); err == nil {
				t.Fatalf("EMSTMetric(%v) accepted non-finite input", m)
			}
			if _, err := HDBSCANMetric(pts, 2, m); err == nil {
				t.Fatalf("HDBSCANMetric(%v) accepted non-finite input", m)
			}
			if _, err := SingleLinkageMetric(pts, m); err == nil {
				t.Fatalf("SingleLinkageMetric(%v) accepted non-finite input", m)
			}
			if _, err := DBSCANStarMetric(pts, 2, 1.0, m); err == nil {
				t.Fatalf("DBSCANStarMetric(%v) accepted non-finite input", m)
			}
			if _, err := DBSCANMetric(pts, 2, 1.0, m); err == nil {
				t.Fatalf("DBSCANMetric(%v) accepted non-finite input", m)
			}
			if _, err := OPTICSMetric(pts, 2, 1.0, m); err == nil {
				t.Fatalf("OPTICSMetric(%v) accepted non-finite input", m)
			}
		}
	}
}

// TestL2CoordinateBound pins the coordinate bounds: metric.MaxAbsCoord64
// under the kernels that square coordinate differences, MaxFloat64/(8·dim)
// under L1 and MaxFloat64/8 under LInf. NewIndex and Insert reject a
// coordinate past the bound, and ApproxOPTICS one past the L2 bound. At the
// bound the default EMST still spans, HDBSCAN* builds and k-NN returns all
// k, also with rows at opposite extremes. The bound covers the distance
// kernels, not EMSTDelaunay2D's incircle predicates, which overflow far
// inside it. L1 and LInf square nothing, so they accept a coordinate past
// the L2 bound.
func TestL2CoordinateBound(t *testing.T) {
	l2Bound := metric.MaxAbsCoord64(2)
	rows := func(x float64) Points {
		return PointsFromSlices([][]float64{{0, 0}, {x, 0}, {1, 1}, {x, 1}})
	}
	spans := func(m Metric, ix *Index, n int) {
		t.Helper()
		edges, err := ix.EMST()
		if err != nil || len(edges) != n-1 {
			t.Fatalf("%v: EMST over %d points: %d edges, err %v", m, n, len(edges), err)
		}
		for _, e := range edges {
			if math.IsInf(e.W, 0) || math.IsNaN(e.W) {
				t.Fatalf("%v: EMST edge %+v has a non-finite weight", m, e)
			}
		}
		if _, err := ix.HDBSCAN(2); err != nil {
			t.Fatalf("%v: HDBSCAN(2): %v", m, err)
		}
		if nb, err := ix.KNN(0, n); err != nil || len(nb) != n {
			t.Fatalf("%v: KNN(0, %d): %d neighbours, err %v", m, n, len(nb), err)
		}
	}
	for _, c := range []struct {
		m     Metric
		bound float64
	}{
		{MetricL2, l2Bound},
		{MetricSqL2, l2Bound},
		{MetricL1, math.MaxFloat64 / 16},
		{MetricLInf, math.MaxFloat64 / 8},
	} {
		m, bound := c.m, c.bound
		opts := &IndexOptions{Metric: m}
		past := math.Nextafter(bound, math.Inf(1))
		for _, x := range []float64{past, -past, 1e155} {
			if math.Abs(x) <= bound {
				continue // 1e155 is inside the L1 and LInf bounds (see below)
			}
			if _, err := NewIndex(rows(x), opts); err == nil {
				t.Fatalf("%v: NewIndex accepted coordinate %v past the bound %v", m, x, bound)
			}
		}
		ix, err := NewIndex(rows(bound), opts)
		if err != nil {
			t.Fatalf("%v: NewIndex rejected coordinates at the bound: %v", m, err)
		}
		spans(m, ix, 4)
		if _, err := ix.Insert(PointsFromSlices([][]float64{{past, 0}})); err == nil {
			t.Fatalf("%v: Insert accepted a coordinate past the bound", m)
		}
		if _, err := ix.Insert(PointsFromSlices([][]float64{{-bound, 1}})); err != nil {
			t.Fatalf("%v: Insert rejected a coordinate at the bound: %v", m, err)
		}
		spans(m, ix, 5)
	}
	if _, err := ApproxOPTICS(rows(math.Nextafter(l2Bound, math.Inf(1))), 2, 0.125); err == nil {
		t.Fatal("ApproxOPTICS accepted a coordinate past the bound")
	}
	for _, m := range []Metric{MetricL1, MetricLInf} {
		ix, err := NewIndex(rows(1e155), &IndexOptions{Metric: m})
		if err != nil {
			t.Fatalf("%v: NewIndex rejected 1e155: %v", m, err)
		}
		spans(m, ix, 4)
	}
}

func TestAngularRejectsZeroVectorAndPreservesInput(t *testing.T) {
	withZero := PointsFromSlices([][]float64{{1, 0}, {0, 0}, {0, 1}})
	if _, err := EMSTMetric(withZero, MetricAngular); err == nil {
		t.Fatal("angular EMST accepted the zero vector")
	}
	if _, err := HDBSCANMetric(withZero, 2, MetricAngular); err == nil {
		t.Fatal("angular HDBSCAN accepted the zero vector")
	}
	pts := PointsFromSlices([][]float64{{3, 4}, {5, 12}, {-8, 6}})
	orig := append([]float64(nil), pts.Data...)
	if _, err := EMSTMetric(pts, MetricAngular); err != nil {
		t.Fatal(err)
	}
	for i, v := range pts.Data {
		if v != orig[i] {
			t.Fatal("angular normalization mutated the caller's points")
		}
	}
}

func TestDelaunayRequiresL2(t *testing.T) {
	pts := GenerateUniform(50, 2, 1)
	if _, err := emstWith(pts, EMSTDelaunay2D, MetricL1); err == nil {
		t.Fatal("Delaunay EMST accepted a non-L2 metric")
	}
	if _, err := emstWith(pts, EMSTDelaunay2D, MetricL2); err != nil {
		t.Fatalf("Delaunay EMST rejected l2: %v", err)
	}
}

// TestDBSCANStarMetricMatchesHierarchyCut extends the seed's L2
// cross-check to non-Euclidean kernels: cutting the metric HDBSCAN*
// hierarchy at radius eps must reproduce the direct flat DBSCAN* run
// under the same kernel.
func TestDBSCANStarMetricMatchesHierarchyCut(t *testing.T) {
	pts := GenerateVarden(400, 2, 9)
	minPts := 8
	for _, m := range []Metric{MetricL1, MetricLInf, MetricSqL2} {
		h, err := HDBSCANMetric(pts, minPts, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0.5, 1.5, 4.0} {
			if m == MetricSqL2 {
				eps *= eps // same ball, squared radius
			}
			flat, err := DBSCANStarMetric(pts, minPts, eps, m)
			if err != nil {
				t.Fatal(err)
			}
			cut := h.ClustersAt(eps)
			if !sameClustering(flat, cut) {
				t.Fatalf("metric %v eps=%v: flat DBSCAN* and hierarchy cut disagree", m, eps)
			}
		}
	}
}

// sameClustering compares two flat clusterings up to label permutation.
func sameClustering(a, b Clustering) bool {
	if len(a.Labels) != len(b.Labels) || a.NumClusters != b.NumClusters {
		return false
	}
	fwd := map[int32]int32{}
	rev := map[int32]int32{}
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
		if m, ok := rev[lb]; ok && m != la {
			return false
		}
		fwd[la], rev[lb] = lb, la
	}
	return true
}

// TestSqL2MatchesL2Clusters pins the monotone-transform contract at the
// public level: SqL2 must produce the same DBSCAN* clusters as L2 at the
// squared radius and the same HDBSCAN* dendrogram topology sizes.
func TestSqL2MatchesL2Clusters(t *testing.T) {
	pts := GenerateGaussianMixture(300, 3, 4, 17)
	eps := 1.2
	l2, err := DBSCANStarMetric(pts, 5, eps, MetricL2)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := DBSCANStarMetric(pts, 5, eps*eps, MetricSqL2)
	if err != nil {
		t.Fatal(err)
	}
	if !sameClustering(l2, sq) {
		t.Fatal("sql2 at eps^2 disagrees with l2 at eps")
	}
}

func TestOPTICSMetricRuns(t *testing.T) {
	pts := GenerateUniform(120, 2, 3)
	for _, m := range allMetrics() {
		order, err := OPTICSMetric(pts, 5, math.Inf(1), m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(order) != pts.N {
			t.Fatalf("%v: ordering has %d entries, want %d", m, len(order), pts.N)
		}
	}
}
