package optics

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"parclust/internal/geometry"
	"parclust/internal/hdbscan"
	"parclust/internal/kdtree"
	"parclust/internal/metric"
	"parclust/internal/oracle"
)

func randPoints(n, dim int, seed int64) geometry.Points {
	rng := rand.New(rand.NewSource(seed))
	p := geometry.NewPoints(n, dim)
	for i := range p.Data {
		p.Data[i] = rng.Float64() * 100
	}
	return p
}

// run computes the OPTICS ordering the way Index.OPTICS does: RunOnTree over
// a leaf-size-1 tree under m with its core distances. It fails unless a
// leaf-size-16 tree gives the same ordering, as RunOnTree's doc promises.
func run(t *testing.T, pts geometry.Points, minPts int, eps float64, mutual bool, m metric.Metric) []Entry {
	t.Helper()
	var res [2][]Entry
	for i, leaf := range []int{1, 16} {
		tr := kdtree.BuildMetric(pts, leaf, m)
		res[i] = RunOnTree(tr, tr.CoreDistances(minPts), eps, mutual)
	}
	if !slices.Equal(res[0], res[1]) {
		t.Fatalf("%s minPts=%d eps=%v mutual=%v: leaf size 16 orders differently from leaf size 1",
			m.Name(), minPts, eps, mutual)
	}
	return res[0]
}

// TestMutualUnboundedMatchesHDBSCANMST: with mutual reachability and
// eps = +Inf, OPTICS is Prim on the mutual reachability graph, so its
// finite reachability values are exactly the HDBSCAN* MST edge weights.
func TestMutualUnboundedMatchesHDBSCANMST(t *testing.T) {
	for _, minPts := range []int{2, 5, 10} {
		pts := randPoints(250, 2, int64(minPts))
		order := run(t, pts, minPts, math.Inf(1), true, metric.L2{})
		if len(order) != pts.N {
			t.Fatalf("ordering has %d entries", len(order))
		}
		if order[0].Idx != 0 || !math.IsInf(order[0].Reachability, 1) {
			t.Fatal("ordering must start at point 0 with infinite reachability")
		}
		var got []float64
		for _, e := range order[1:] {
			got = append(got, e.Reachability)
		}
		tr := kdtree.BuildMetric(pts, 1, metric.L2{})
		tr.AnnotateCoreDists(tr.CoreDistances(minPts))
		var want []float64
		for _, e := range hdbscan.MSTOnAnnotatedTree(tr, hdbscan.MemoGFK, metric.L2{}, nil, nil) {
			want = append(want, e.W)
		}
		sort.Float64s(got)
		sort.Float64s(want)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("minPts=%d: reachability[%d]=%v, MST weight %v", minPts, i, got[i], want[i])
			}
		}
	}
}

// TestClassicAsymmetricDiffers: the original OPTICS reachability is
// asymmetric (footnote 4 of the paper); on data with varied density its
// total differs from the mutual variant, and never exceeds it.
func TestClassicAsymmetricDiffers(t *testing.T) {
	pts := randPoints(200, 2, 7)
	minPts := 10
	classic := run(t, pts, minPts, math.Inf(1), false, metric.L2{})
	mutual := run(t, pts, minPts, math.Inf(1), true, metric.L2{})
	var sc, sm float64
	for i := 1; i < len(classic); i++ {
		sc += classic[i].Reachability
		sm += mutual[i].Reachability
	}
	if sc > sm+1e-9 {
		t.Fatalf("asymmetric total %v exceeds mutual total %v", sc, sm)
	}
}

// TestBoundedEps: with a finite eps, unreachable points start new
// components with infinite reachability, matching DBSCAN connectivity.
func TestBoundedEps(t *testing.T) {
	// Two far-apart blobs.
	rows := [][]float64{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 30; i++ {
		rows = append(rows, []float64{rng.Float64(), rng.Float64()})
	}
	for i := 0; i < 30; i++ {
		rows = append(rows, []float64{1000 + rng.Float64(), rng.Float64()})
	}
	pts := geometry.FromSlices(rows)
	order := run(t, pts, 5, 10, false, metric.L2{})
	if len(order) != pts.N {
		t.Fatalf("ordering has %d entries, want %d", len(order), pts.N)
	}
	infs := 0
	for _, e := range order {
		if math.IsInf(e.Reachability, 1) {
			infs++
		}
	}
	if infs != 2 {
		t.Fatalf("expected 2 infinite-reachability component starts, got %d", infs)
	}
}

// TestOrderingIsPermutation guards the heap implementation, under every
// kernel and both reachability semantics, with bounded and unbounded eps
// (run also checks leaf-size independence for each).
func TestOrderingIsPermutation(t *testing.T) {
	for _, m := range metric.All() {
		pts := randPoints(300, 3, 13)
		if _, ok := m.(metric.Angular); ok {
			var err error
			if pts, err = metric.NormalizeRows(pts); err != nil {
				t.Fatal(err)
			}
		}
		for _, eps := range []float64{0.3, 10, math.Inf(1)} {
			for _, mutual := range []bool{false, true} {
				seen := make([]bool, pts.N)
				for _, e := range run(t, pts, 5, eps, mutual, m) {
					if seen[e.Idx] {
						t.Fatalf("%s eps=%v: point %d visited twice", m.Name(), eps, e.Idx)
					}
					seen[e.Idx] = true
				}
				for i, s := range seen {
					if !s {
						t.Fatalf("%s eps=%v: point %d never visited", m.Name(), eps, i)
					}
				}
			}
		}
	}
}

// TestReachabilityLowerBound: every reachability is at least the core
// distance of the predecessor structure — concretely, at least the point's
// own core distance under mutual semantics.
func TestReachabilityLowerBound(t *testing.T) {
	pts := randPoints(150, 2, 17)
	minPts := 5
	cd := oracle.CoreDistances(pts, minPts, metric.L2{})
	for _, e := range run(t, pts, minPts, math.Inf(1), true, metric.L2{})[1:] {
		if e.Reachability < cd[e.Idx]-1e-12 {
			t.Fatalf("reachability %v below core distance %v", e.Reachability, cd[e.Idx])
		}
	}
}
