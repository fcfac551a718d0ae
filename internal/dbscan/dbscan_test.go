package dbscan

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"parclust/internal/dendrogram"
	"parclust/internal/geometry"
	"parclust/internal/hdbscan"
	"parclust/internal/kdtree"
	"parclust/internal/metric"
	"parclust/internal/unionfind"
)

func randPoints(n, dim int, seed int64) geometry.Points {
	rng := rand.New(rand.NewSource(seed))
	p := geometry.NewPoints(n, dim)
	for i := range p.Data {
		p.Data[i] = rng.Float64() * 100
	}
	return p
}

// cluster runs DBSCAN* (with borders, DBSCAN) the way Index.DBSCANStar and
// Index.DBSCAN do: the stage functions over a leaf-size-1 tree under m. It
// fails unless a leaf-size-16 tree gives byte-equal labels and core flags,
// as StarWithCore's doc promises.
func cluster(t *testing.T, pts geometry.Points, minPts int, eps float64, m metric.Metric, borders bool) Result {
	t.Helper()
	var res [2]Result
	for i, leaf := range []int{1, 16} {
		tr := kdtree.BuildMetric(pts, leaf, m)
		res[i] = StarWithCore(tr, CoreByRangeCount(tr, minPts, eps), eps)
		if borders {
			res[i] = AttachBorders(tr, res[i], eps)
		}
	}
	if !reflect.DeepEqual(res[0], res[1]) {
		t.Fatalf("%s minPts=%d eps=%v borders=%v: leaf size 16 differs from leaf size 1",
			m.Name(), minPts, eps, borders)
	}
	return res[0]
}

// bruteStar is DBSCAN* under m from the definition.
func bruteStar(pts geometry.Points, minPts int, eps float64, m metric.Metric) Result {
	n := pts.N
	core := make([]bool, n)
	for i := 0; i < n; i++ {
		cnt := 0
		for j := 0; j < n; j++ {
			if m.Dist(pts.At(i), pts.At(j)) <= eps {
				cnt++
			}
		}
		core[i] = cnt >= minPts
	}
	uf := unionfind.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if core[i] && core[j] && m.Dist(pts.At(i), pts.At(j)) <= eps {
				uf.Union(int32(i), int32(j))
			}
		}
	}
	labels := make([]int32, n)
	next := int32(0)
	id := map[int32]int32{}
	for i := 0; i < n; i++ {
		if !core[i] {
			labels[i] = -1
			continue
		}
		r := uf.Find(int32(i))
		c, ok := id[r]
		if !ok {
			c = next
			id[r] = c
			next++
		}
		labels[i] = c
	}
	return Result{Labels: labels, NumClusters: int(next), Core: core}
}

func sameClustering(a, b Result) bool {
	if len(a.Labels) != len(b.Labels) || a.NumClusters != b.NumClusters {
		return false
	}
	fwd := map[int32]int32{}
	bwd := map[int32]int32{}
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
		if m, ok := bwd[lb]; ok && m != la {
			return false
		}
		fwd[la] = lb
		bwd[lb] = la
	}
	return true
}

// TestDBSCANStarMatchesBruteForce checks DBSCAN* against the definition
// under every kernel, and DBSCAN's border attachment for leaf-size
// independence (cluster checks both).
func TestDBSCANStarMatchesBruteForce(t *testing.T) {
	for _, m := range metric.All() {
		for _, n := range []int{5, 50, 300} {
			for _, eps := range []float64{1, 5, 15, 50} {
				pts := randPoints(n, 2, int64(n)*3+int64(eps))
				if _, ok := m.(metric.Angular); ok {
					var err error
					if pts, err = metric.NormalizeRows(pts); err != nil {
						t.Fatal(err)
					}
				}
				got := cluster(t, pts, 5, eps, m, false)
				want := bruteStar(pts, 5, eps, m)
				if !sameClustering(got, want) {
					t.Fatalf("%s n=%d eps=%v: DBSCAN* differs from brute force", m.Name(), n, eps)
				}
				for i := range got.Core {
					if got.Core[i] != want.Core[i] {
						t.Fatalf("%s n=%d eps=%v: core flag differs at %d", m.Name(), n, eps, i)
					}
				}
				cluster(t, pts, 5, eps, m, true)
			}
		}
	}
}

func TestDBSCANStarQuick(t *testing.T) {
	f := func(seed int64, nRaw, epsRaw uint8) bool {
		n := 5 + int(nRaw)%100
		eps := 1 + float64(epsRaw)/4
		pts := randPoints(n, 2, seed)
		return sameClustering(cluster(t, pts, 4, eps, metric.L2{}, false), bruteStar(pts, 4, eps, metric.L2{}))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMatchesHDBSCANCut is the paper's central relationship (Section 2.1):
// cutting the HDBSCAN* MST at eps reproduces DBSCAN* exactly.
func TestMatchesHDBSCANCut(t *testing.T) {
	pts := randPoints(400, 2, 9)
	minPts := 10
	tr := kdtree.BuildMetric(pts, 1, metric.L2{})
	cd := tr.CoreDistances(minPts)
	tr.AnnotateCoreDists(cd)
	edges := hdbscan.MSTOnAnnotatedTree(tr, hdbscan.MemoGFK, metric.L2{}, nil, nil)
	for _, eps := range []float64{1, 3, 8, 20} {
		cut := dendrogram.CutTree(pts.N, edges, cd, eps)
		direct := cluster(t, pts, minPts, eps, metric.L2{}, false)
		got := Result{Labels: cut.Labels, NumClusters: cut.NumClusters, Core: direct.Core}
		if !sameClustering(got, direct) {
			t.Fatalf("eps=%v: HDBSCAN* cut differs from direct DBSCAN*", eps)
		}
	}
}

func TestDBSCANBorderPoints(t *testing.T) {
	// A dense blob plus one point at distance d < eps from the blob edge:
	// that point is a border point — noise under DBSCAN*, clustered under
	// DBSCAN.
	rows := [][]float64{}
	for i := 0; i < 10; i++ {
		rows = append(rows, []float64{float64(i) * 0.1, 0})
	}
	rows = append(rows, []float64{1.9, 0}) // border: within eps=1.1 of the blob edge
	pts := geometry.FromSlices(rows)
	minPts, eps := 5, 1.1
	star := cluster(t, pts, minPts, eps, metric.L2{}, false)
	full := cluster(t, pts, minPts, eps, metric.L2{}, true)
	last := pts.N - 1
	if star.Labels[last] != -1 {
		t.Fatalf("border point should be noise under DBSCAN*, got label %d", star.Labels[last])
	}
	if full.Labels[last] == -1 {
		t.Fatal("border point should be clustered under DBSCAN")
	}
	if full.Labels[last] != full.Labels[0] {
		t.Fatal("border point joined the wrong cluster")
	}
}

func TestDBSCANSupersetsOfStar(t *testing.T) {
	// DBSCAN only ever turns noise into border points; core labels agree.
	pts := randPoints(300, 2, 21)
	star := cluster(t, pts, 5, 4, metric.L2{}, false)
	full := cluster(t, pts, 5, 4, metric.L2{}, true)
	for i := range star.Labels {
		if star.Core[i] && star.Labels[i] != full.Labels[i] {
			// Labels may be renumbered; compare via co-membership below.
			break
		}
	}
	// Co-membership of core points must be identical.
	for i := 0; i < pts.N; i++ {
		for j := i + 1; j < pts.N; j++ {
			if !star.Core[i] || !star.Core[j] {
				continue
			}
			same1 := star.Labels[i] == star.Labels[j]
			same2 := full.Labels[i] == full.Labels[j]
			if same1 != same2 {
				t.Fatalf("core co-membership differs for (%d,%d)", i, j)
			}
		}
	}
	// Noise under DBSCAN must also be noise under DBSCAN*.
	for i := range full.Labels {
		if full.Labels[i] == -1 && star.Labels[i] != -1 {
			t.Fatalf("point %d is DBSCAN noise but DBSCAN* clustered", i)
		}
	}
}
