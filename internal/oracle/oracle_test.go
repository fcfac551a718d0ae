package oracle_test

// Differential tests: every MST variant in the pipeline, under every
// metric kernel, must agree with the brute-force Prim oracle on total
// weight and on the single-linkage merge-height multiset, across a sweep
// of dimensions, sizes (including the empty, singleton, and two-point
// degenerate cases), and random seeds.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"parclust/internal/geometry"
	"parclust/internal/hdbscan"
	"parclust/internal/kdtree"
	"parclust/internal/metric"
	"parclust/internal/mst"
	"parclust/internal/oracle"
	"parclust/internal/wspd"
)

var sweepDims = []int{2, 3, 5}
var sweepSizes = []int{0, 1, 2, 17, 256}

func sweepSeeds(t *testing.T) []int64 {
	if testing.Short() {
		return []int64{1}
	}
	return []int64{1, 2}
}

func randPoints(n, dim int, seed int64) geometry.Points {
	rng := rand.New(rand.NewSource(seed))
	p := geometry.NewPoints(n, dim)
	for i := range p.Data {
		p.Data[i] = rng.Float64() * 100
	}
	return p
}

// preparePoints mirrors the public API's input preparation: the angular
// kernel sees unit-normalized rows.
func preparePoints(t *testing.T, pts geometry.Points, m metric.Metric) geometry.Points {
	t.Helper()
	if _, ok := m.(metric.Angular); !ok {
		return pts
	}
	norm, err := metric.NormalizeRows(pts)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	return norm
}

func configFor(pts geometry.Points, m metric.Metric) mst.Config {
	// The tree slab-allocates its nodes and physically reorders the points
	// into kd-order, so every sweep below also differentially tests the
	// arena layout and the position<->original-id mapping against the
	// oracle (which runs on the untouched input points).
	tr := kdtree.BuildMetric(pts, 1, m)
	var em kdtree.Metric
	var sep wspd.Separation
	if metric.IsL2(m) {
		em, sep = kdtree.NewEuclidean(tr), wspd.Geometric{S: 2}
	} else {
		em, sep = kdtree.NewPointDist(tr), wspd.MetricGeometric{M: m, S: 2}
	}
	return mst.Config{Tree: tr, Metric: em, Sep: sep, Stats: mst.NewStats()}
}

// hdbscanMST runs the HDBSCAN* MST stage the way the engine does: over a
// leaf-size-1 tree annotated with the core distances for minPts.
func hdbscanMST(pts geometry.Points, minPts int, algo hdbscan.Algorithm, m metric.Metric) []mst.Edge {
	tr := kdtree.BuildMetric(pts, 1, m)
	tr.AnnotateCoreDists(tr.CoreDistances(minPts))
	return hdbscan.MSTOnAnnotatedTree(tr, algo, m, nil, nil)
}

// emstVariants enumerates every WSPD-based EMST implementation plus the
// single-tree Borůvka baseline, each taking a fresh config/tree.
func emstVariants() map[string]func(geometry.Points, metric.Metric) []mst.Edge {
	return map[string]func(geometry.Points, metric.Metric) []mst.Edge{
		"naive":       func(p geometry.Points, m metric.Metric) []mst.Edge { return mst.Naive(configFor(p, m)) },
		"gfk":         func(p geometry.Points, m metric.Metric) []mst.Edge { return mst.GFK(configFor(p, m)) },
		"memogfk":     func(p geometry.Points, m metric.Metric) []mst.Edge { return mst.MemoGFK(configFor(p, m)) },
		"wspdboruvka": func(p geometry.Points, m metric.Metric) []mst.Edge { return mst.WSPDBoruvka(configFor(p, m)) },
		"boruvka": func(p geometry.Points, m metric.Metric) []mst.Edge {
			return mst.Boruvka(mst.Config{Tree: kdtree.BuildMetric(p, 1, m), Stats: mst.NewStats()})
		},
	}
}

func checkAgainstOracle(t *testing.T, label string, n int, got, want []mst.Edge) {
	t.Helper()
	if n <= 1 {
		if len(got) != 0 {
			t.Fatalf("%s: n=%d produced %d edges, want none", label, n, len(got))
		}
		return
	}
	if !oracle.IsSpanningTree(n, got) {
		t.Fatalf("%s: result is not a spanning tree (%d edges over %d points)", label, len(got), n)
	}
	gw, ww := mst.TotalWeight(got), mst.TotalWeight(want)
	if math.Abs(gw-ww) > 1e-9*(1+math.Abs(ww)) {
		t.Fatalf("%s: total weight %v, oracle %v", label, gw, ww)
	}
	gh, wh := oracle.MergeHeights(got), oracle.MergeHeights(want)
	for i := range gh {
		if math.Abs(gh[i]-wh[i]) > 1e-9*(1+math.Abs(wh[i])) {
			t.Fatalf("%s: merge height %d is %v, oracle %v", label, i, gh[i], wh[i])
		}
	}
}

func TestEMSTVariantsMatchPrimOracleAllMetrics(t *testing.T) {
	variants := emstVariants()
	for _, m := range metric.All() {
		for _, dim := range sweepDims {
			for _, n := range sweepSizes {
				for _, seed := range sweepSeeds(t) {
					pts := preparePoints(t, randPoints(n, dim, seed+int64(101*n+dim)), m)
					want := oracle.PrimMST(n, oracle.Dist(pts, m))
					for name, run := range variants {
						got := run(pts, m)
						label := fmt.Sprintf("%s/%s/dim=%d/n=%d/seed=%d", name, m.Name(), dim, n, seed)
						checkAgainstOracle(t, label, n, got, want)
					}
				}
			}
		}
	}
}

func TestHDBSCANVariantsMatchPrimOracleAllMetrics(t *testing.T) {
	algos := map[string]hdbscan.Algorithm{
		"memogfk":    hdbscan.MemoGFK,
		"gantao":     hdbscan.GanTao,
		"gantaofull": hdbscan.GanTaoFull,
	}
	minPts := 4
	for _, m := range metric.All() {
		for _, dim := range sweepDims {
			for _, n := range sweepSizes {
				if n > 0 && n < minPts {
					continue
				}
				for _, seed := range sweepSeeds(t) {
					pts := preparePoints(t, randPoints(n, dim, seed+int64(977*n+dim)), m)
					want := oracle.PrimMST(n, oracle.MutualReachability(pts, minPts, m))
					for name, algo := range algos {
						label := fmt.Sprintf("hdbscan-%s/%s/dim=%d/n=%d/seed=%d", name, m.Name(), dim, n, seed)
						checkAgainstOracle(t, label, n, hdbscanMST(pts, minPts, algo, m), want)
					}
				}
			}
		}
	}
}

func TestCoreDistancesMatchOracleAllMetrics(t *testing.T) {
	for _, m := range metric.All() {
		for _, dim := range sweepDims {
			for _, minPts := range []int{1, 2, 5} {
				pts := preparePoints(t, randPoints(60, dim, int64(31*dim+minPts)), m)
				tr := kdtree.BuildMetric(pts, 1, m)
				got := tr.CoreDistances(minPts)
				want := oracle.CoreDistances(pts, minPts, m)
				for i := range got {
					if math.Abs(got[i]-want[i]) > 1e-12*(1+want[i]) {
						t.Fatalf("%s dim=%d minPts=%d: cd[%d]=%v, oracle %v",
							m.Name(), dim, minPts, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestReorderedTreeQueriesMatchOracleAllMetrics differentially tests the
// arena/reordered k-d tree's query surface — KNN, RangeQuery, RangeCount —
// against brute force over the untouched input points, under every kernel.
// Any break in the kd-order permutation or the position<->original-id
// mapping shows up as a wrong id or distance here.
func TestReorderedTreeQueriesMatchOracleAllMetrics(t *testing.T) {
	for _, m := range metric.All() {
		for _, dim := range sweepDims {
			pts := preparePoints(t, randPoints(150, dim, int64(53*dim)), m)
			tr := kdtree.BuildMetric(pts, 4, m)
			for q := 0; q < pts.N; q += 11 {
				nbrs := tr.KNN(int32(q), 5)
				dists := make([]float64, pts.N)
				for j := 0; j < pts.N; j++ {
					dists[j] = m.Dist(pts.At(q), pts.At(j))
				}
				for i, nb := range nbrs {
					// The reported id must realize the reported distance
					// against the ORIGINAL point set.
					if math.Abs(dists[nb.Idx]-nb.Dist) > 1e-12*(1+nb.Dist) {
						t.Fatalf("%s dim=%d q=%d: neighbor %d id %d does not realize dist %v",
							m.Name(), dim, q, i, nb.Idx, nb.Dist)
					}
				}
				// Pick a radius strictly between two distinct neighbor
				// distances so sqrt/re-square rounding cannot flip a
				// boundary point between the tree and the oracle.
				sorted := append([]float64(nil), dists...)
				sort.Float64s(sorted)
				r := -1.0
				for j := 4; j+1 < len(sorted); j++ {
					if sorted[j+1] > sorted[j]*(1+1e-9)+1e-300 {
						r = (sorted[j] + sorted[j+1]) / 2
						break
					}
				}
				if r < 0 {
					continue // all candidate radii tie; nothing to separate
				}
				want := 0
				for j := 0; j < pts.N; j++ {
					if dists[j] <= r {
						want++
					}
				}
				if got := tr.RangeCount(int32(q), r); got != want {
					t.Fatalf("%s dim=%d q=%d: RangeCount %d, oracle %d", m.Name(), dim, q, got, want)
				}
				if got := len(tr.RangeQuery(int32(q), r)); got != want {
					t.Fatalf("%s dim=%d q=%d: RangeQuery returned %d ids, oracle %d", m.Name(), dim, q, got, want)
				}
				for _, p := range tr.RangeQuery(int32(q), r) {
					if dists[p] > r {
						t.Fatalf("%s dim=%d q=%d: RangeQuery id %d outside ball", m.Name(), dim, q, p)
					}
				}
			}
		}
	}
}

// TestDegenerateInputsAllMetrics covers the inputs the random sweep never
// hits: exact duplicates, all-identical point sets, and collinear points.
func TestDegenerateInputsAllMetrics(t *testing.T) {
	shapes := map[string]geometry.Points{
		"duplicates":    duplicatePoints(40, 3),
		"all-identical": identicalPoints(30, 3),
		"collinear":     collinearPoints(50, 3),
	}
	variants := emstVariants()
	for _, m := range metric.All() {
		for shape, raw := range shapes {
			pts := preparePoints(t, raw, m)
			want := oracle.PrimMST(pts.N, oracle.Dist(pts, m))
			for name, run := range variants {
				got := run(pts, m)
				checkAgainstOracle(t, name+"/"+m.Name()+"/"+shape, pts.N, got, want)
			}
			wantH := oracle.PrimMST(pts.N, oracle.MutualReachability(pts, 3, m))
			checkAgainstOracle(t, "hdbscan/"+m.Name()+"/"+shape, pts.N, hdbscanMST(pts, 3, hdbscan.MemoGFK, m), wantH)
		}
	}
}

func duplicatePoints(n, dim int) geometry.Points {
	rng := rand.New(rand.NewSource(7))
	p := geometry.NewPoints(n, dim)
	for i := 0; i < n; i += 2 {
		row := p.At(i)
		for k := range row {
			row[k] = 1 + rng.Float64()*10
		}
		if i+1 < n {
			copy(p.At(i+1), row)
		}
	}
	return p
}

func identicalPoints(n, dim int) geometry.Points {
	p := geometry.NewPoints(n, dim)
	for i := 0; i < n; i++ {
		row := p.At(i)
		for k := range row {
			row[k] = 3.5
		}
	}
	return p
}

func collinearPoints(n, dim int) geometry.Points {
	p := geometry.NewPoints(n, dim)
	for i := 0; i < n; i++ {
		row := p.At(i)
		for k := range row {
			row[k] = 0.25 + float64(i)*float64(k+1)
		}
	}
	return p
}

// TestMonotoneTransformsShareTopology verifies the monotone-transform
// argument the SqL2 and Angular kernels rest on: the SqL2 MST must be the
// L2 MST with squared weights.
func TestMonotoneTransformsShareTopology(t *testing.T) {
	pts := randPoints(80, 3, 5)
	l2 := mst.MemoGFK(configFor(pts, metric.L2{}))
	sq := mst.MemoGFK(configFor(pts, metric.SqL2{}))
	sumSq := 0.0
	for _, e := range l2 {
		sumSq += e.W * e.W
	}
	if math.Abs(mst.TotalWeight(sq)-sumSq) > 1e-9*(1+sumSq) {
		t.Fatalf("sql2 total %v, want sum of squared l2 weights %v", mst.TotalWeight(sq), sumSq)
	}
}
