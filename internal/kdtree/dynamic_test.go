package kdtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"parclust/internal/metric"
)

// Tests for the tombstone-aware live traversals backing the engine's
// dynamic layer. Every assertion is against a brute-force scan over the
// surviving points using the metric's own kernel, for every registered
// kernel, with and without tombstones.

// liveBrute returns (idx, dist) for every non-tombstoned point, sorted by
// (dist, original id).
func liveBrute(pts pointsLike, m metric.Metric, qc []float64, tomb []bool) []Neighbor {
	var out []Neighbor
	for j := 0; j < pts.n(); j++ {
		if tomb != nil && tomb[j] {
			continue
		}
		out = append(out, Neighbor{Idx: int32(j), Dist: m.Dist(qc, pts.at(j))})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Dist != out[b].Dist {
			return out[a].Dist < out[b].Dist
		}
		return out[a].Idx < out[b].Idx
	})
	return out
}

// pointsLike lets liveBrute read geometry.Points without importing it
// twice under a different name.
type pointsLike struct {
	data []float64
	num  int
	dim  int
}

func (p pointsLike) n() int             { return p.num }
func (p pointsLike) at(i int) []float64 { return p.data[i*p.dim : (i+1)*p.dim] }

func TestKNNLiveMatchesBruteForce(t *testing.T) {
	for _, m := range metric.All() {
		pts := metricPoints(t, 240, 3, 31, m)
		tr := BuildMetric(pts, 8, m)
		pl := pointsLike{pts.Data, pts.N, pts.Dim}
		tombs := [][]bool{nil, make([]bool, pts.N)}
		for j := 0; j < pts.N; j += 3 {
			tombs[1][j] = true
		}
		for _, tomb := range tombs {
			for _, q := range []int{1, 77, 239} {
				qc := pts.At(q)
				want := liveBrute(pl, m, qc, tomb)
				for _, k := range []int{1, 5, 17} {
					var ws KNNWorkspace
					got := tr.KNNLiveInto(qc, k, tomb, &ws)
					wantK := k
					if wantK > len(want) {
						wantK = len(want)
					}
					if len(got) != wantK {
						t.Fatalf("%s q=%d k=%d tomb=%v: got %d neighbors, want %d",
							m.Name(), q, k, tomb != nil, len(got), wantK)
					}
					for i, nb := range got {
						if tomb != nil && tomb[nb.Idx] {
							t.Fatalf("%s q=%d k=%d: neighbor %d is tombstoned id %d",
								m.Name(), q, k, i, nb.Idx)
						}
						if math.Abs(nb.Dist-want[i].Dist) > 1e-12*(1+want[i].Dist) {
							t.Fatalf("%s q=%d k=%d tomb=%v: neighbor %d dist %v, want %v",
								m.Name(), q, k, tomb != nil, i, nb.Dist, want[i].Dist)
						}
					}
				}
			}
		}
	}
}

func TestKNNLiveFewerThanK(t *testing.T) {
	pts := randPoints(20, 2, 9)
	tr := BuildMetric(pts, 4, metric.L2{})
	tomb := make([]bool, pts.N)
	for j := 0; j < pts.N; j++ {
		tomb[j] = j >= 3 // only ids 0,1,2 survive
	}
	var ws KNNWorkspace
	got := tr.KNNLiveInto(pts.At(0), 10, tomb, &ws)
	if len(got) != 3 {
		t.Fatalf("got %d neighbors from 3 live points, want 3", len(got))
	}
	for _, nb := range got {
		if nb.Idx > 2 {
			t.Fatalf("tombstoned id %d in result", nb.Idx)
		}
	}
}

func TestRangeLiveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, m := range metric.All() {
		pts := metricPoints(t, 300, 3, 47, m)
		tr := BuildMetric(pts, 8, m)
		pl := pointsLike{pts.Data, pts.N, pts.Dim}
		tomb := make([]bool, pts.N)
		for j := 0; j < pts.N; j += 4 {
			tomb[j] = true
		}
		for _, tb := range [][]bool{nil, tomb} {
			for trial := 0; trial < 12; trial++ {
				q := rng.Intn(pts.N)
				qc := pts.At(q)
				// Radii from the brute distance distribution so the result
				// set spans near-empty to most-of-the-tree — but taken at
				// midpoints between consecutive distances, never exactly on
				// one: the l2 traversal compares in squared space and an
				// exact-boundary radius is rounding-sensitive.
				brute := liveBrute(pl, m, qc, tb)
				ri := rng.Intn(len(brute))
				var r float64
				if ri+1 < len(brute) {
					r = (brute[ri].Dist + brute[ri+1].Dist) / 2
				} else {
					r = brute[ri].Dist + 1
				}
				var want []int32
				cnt := 0
				for _, nb := range brute {
					if nb.Dist <= r {
						want = append(want, nb.Idx)
						cnt++
					}
				}
				sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })

				got := tr.RangeQueryLiveAppend(qc, r, tb, nil)
				sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
				if len(got) != len(want) {
					t.Fatalf("%s q=%d r=%v tomb=%v: got %d ids, want %d",
						m.Name(), q, r, tb != nil, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s q=%d r=%v tomb=%v: id[%d]=%d, want %d",
							m.Name(), q, r, tb != nil, i, got[i], want[i])
					}
				}
				if n := tr.RangeCountLive(qc, r, tb); n != cnt {
					t.Fatalf("%s q=%d r=%v tomb=%v: RangeCountLive=%d, want %d",
						m.Name(), q, r, tb != nil, n, cnt)
				}
			}
		}
	}
}

// TestRangeCountLiveWholesaleShortcut pins that the nil-tomb path still
// takes the whole-subtree count shortcut (the radius swallows the tree) and
// agrees with a tombstoned recount.
func TestRangeCountLiveWholesaleShortcut(t *testing.T) {
	pts := randPoints(500, 2, 3)
	tr := BuildMetric(pts, 8, metric.L2{})
	qc := pts.At(0)
	const huge = 1e9
	if n := tr.RangeCountLive(qc, huge, nil); n != pts.N {
		t.Fatalf("all-points radius counted %d, want %d", n, pts.N)
	}
	tomb := make([]bool, pts.N)
	tomb[7], tomb[123], tomb[499] = true, true, true
	if n := tr.RangeCountLive(qc, huge, tomb); n != pts.N-3 {
		t.Fatalf("all-points radius with 3 tombstones counted %d, want %d", n, pts.N-3)
	}
}

func TestDistCoordsMatchesKernel(t *testing.T) {
	for _, m := range metric.All() {
		pts := metricPoints(t, 50, 4, 17, m)
		tr := BuildMetric(pts, 4, m)
		for _, pair := range [][2]int{{0, 1}, {10, 49}, {25, 25}} {
			a, b := pts.At(pair[0]), pts.At(pair[1])
			got := tr.DistCoords(a, b)
			want := m.Dist(a, b)
			if math.Abs(got-want) > 1e-12*(1+want) {
				t.Fatalf("%s DistCoords(%d,%d)=%v, want %v", m.Name(), pair[0], pair[1], got, want)
			}
		}
	}
}
