package kdtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"parclust/internal/geometry"
	"parclust/internal/metric"
)

// metricPoints draws query-friendly points, unit-normalized for Angular so
// the kernel's precondition holds.
func metricPoints(t *testing.T, n, dim int, seed int64, m metric.Metric) geometry.Points {
	t.Helper()
	pts := randPoints(n, dim, seed)
	if _, ok := m.(metric.Angular); ok {
		norm, err := metric.NormalizeRows(pts)
		if err != nil {
			t.Fatal(err)
		}
		return norm
	}
	return pts
}

// TestKNNMetricMatchesBruteForce checks the metric-dispatched k-NN
// traversal against a full sort of the distance row, for every kernel.
func TestKNNMetricMatchesBruteForce(t *testing.T) {
	for _, m := range metric.All() {
		for _, dim := range []int{2, 3, 5} {
			pts := metricPoints(t, 200, dim, int64(dim)*7+1, m)
			tr := BuildMetric(pts, 1, m)
			for _, q := range []int32{0, 57, 199} {
				for _, k := range []int{1, 4, 16} {
					got := tr.KNN(q, k)
					type cand struct {
						idx int32
						d   float64
					}
					all := make([]cand, pts.N)
					for j := 0; j < pts.N; j++ {
						all[j] = cand{int32(j), m.Dist(pts.At(int(q)), pts.At(j))}
					}
					sort.Slice(all, func(a, b int) bool {
						if all[a].d != all[b].d {
							return all[a].d < all[b].d
						}
						return all[a].idx < all[b].idx
					})
					if len(got) != k {
						t.Fatalf("%s dim=%d q=%d k=%d: got %d neighbors", m.Name(), dim, q, k, len(got))
					}
					for i, nb := range got {
						if math.Abs(nb.Dist-all[i].d) > 1e-12*(1+all[i].d) {
							t.Fatalf("%s dim=%d q=%d k=%d: neighbor %d dist %v, want %v",
								m.Name(), dim, q, k, i, nb.Dist, all[i].d)
						}
					}
				}
			}
		}
	}
}

// TestRangeMetricMatchesBruteForce checks RangeQuery and RangeCount under
// every kernel against a linear scan, at radii spanning empty to full.
func TestRangeMetricMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, m := range metric.All() {
		pts := metricPoints(t, 300, 3, 23, m)
		tr := BuildMetric(pts, 8, m)
		scale := 1.0
		if _, ok := m.(metric.Angular); ok {
			scale = 0.01 // angular distances live in [0, pi]
		}
		for trial := 0; trial < 20; trial++ {
			q := int32(rng.Intn(pts.N))
			r := rng.Float64() * 60 * scale
			want := 0
			inBall := map[int32]bool{}
			for j := 0; j < pts.N; j++ {
				if m.Dist(pts.At(int(q)), pts.At(j)) <= r {
					want++
					inBall[int32(j)] = true
				}
			}
			if got := tr.RangeCount(q, r); got != want {
				t.Fatalf("%s: RangeCount(%d, %v) = %d, want %d", m.Name(), q, r, got, want)
			}
			res := tr.RangeQuery(q, r)
			if len(res) != want {
				t.Fatalf("%s: RangeQuery(%d, %v) returned %d points, want %d", m.Name(), q, r, len(res), want)
			}
			for _, p := range res {
				if !inBall[p] {
					t.Fatalf("%s: RangeQuery returned point %d outside the ball", m.Name(), p)
				}
			}
		}
	}
}

// TestBCCPMetricMatchesBruteForce cross-checks BCCP under PointDist (the
// generic interface path) and Euclidean (the monomorphized fast path)
// against exhaustive pair enumeration between two subtrees.
func TestBCCPMetricMatchesBruteForce(t *testing.T) {
	for _, m := range metric.All() {
		pts := metricPoints(t, 128, 3, 77, m)
		tr := BuildMetric(pts, 1, m)
		var em Metric
		if metric.IsL2(m) {
			em = NewEuclidean(tr)
		} else {
			em = NewPointDist(tr)
		}
		a, b := tr.LeftOf(tr.Root), tr.RightOf(tr.Root)
		got := BCCP(tr, em, a, b)
		want := math.Inf(1)
		for _, p := range positions(a) {
			for _, q := range positions(b) {
				if d := m.Dist(tr.Pts.At(int(p)), tr.Pts.At(int(q))); d < want {
					want = d
				}
			}
		}
		if math.Abs(got.W-want) > 1e-12*(1+want) {
			t.Fatalf("%s: BCCP weight %v, brute force %v", m.Name(), got.W, want)
		}
		if d := m.Dist(tr.Pts.At(int(got.U)), tr.Pts.At(int(got.V))); math.Abs(d-got.W) > 1e-12*(1+got.W) {
			t.Fatalf("%s: BCCP pair (%d,%d) realizes %v, reported %v", m.Name(), got.U, got.V, d, got.W)
		}
	}
}

// TestPairDistMatchesKernel pins Tree.PairDist to the kernel on both the
// L2 fast path and the generic path.
func TestPairDistMatchesKernel(t *testing.T) {
	for _, m := range metric.All() {
		pts := metricPoints(t, 50, 4, 3, m)
		tr := BuildMetric(pts, 4, m)
		for i := int32(0); i < 10; i++ {
			for j := int32(40); j < 50; j++ {
				want := m.Dist(pts.At(int(i)), pts.At(int(j)))
				if got := tr.PairDist(i, j); got != want {
					t.Fatalf("%s: PairDist(%d,%d) = %v, kernel %v", m.Name(), i, j, got, want)
				}
			}
		}
	}
}
