package kdtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"parclust/internal/geometry"
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

// positions lists the kd-order positions [n.Lo, n.Hi) a node owns.
func positions(n *Node) []int32 {
	out := make([]int32, 0, n.Size())
	for p := n.Lo; p < n.Hi; p++ {
		out = append(out, p)
	}
	return out
}

func checkTree(t *testing.T, tr *Tree) {
	seen := make([]int, tr.Pts.N)
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			if n.Size() > tr.LeafSize {
				t.Fatalf("leaf of size %d exceeds leaf size %d", n.Size(), tr.LeafSize)
			}
			for _, p := range positions(n) {
				seen[p]++
			}
		} else {
			l, r := tr.LeftOf(n), tr.RightOf(n)
			if l.Lo != n.Lo || l.Hi != r.Lo || r.Hi != n.Hi {
				t.Fatal("child ranges do not partition parent")
			}
			walk(l)
			walk(r)
		}
		// box sanity: contains all points; radius covers them
		for _, p := range positions(n) {
			if geometry.SqDistPointBox(tr.Pts.At(int(p)), n.Box) != 0 {
				t.Fatal("point outside node box")
			}
			if d := math.Sqrt(geometry.SqDistVec(tr.Pts.At(int(p)), n.Ctr)); d > n.Radius+1e-9 {
				t.Fatal("point outside node bounding sphere")
			}
		}
	}
	walk(tr.Root)
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("point %d appears %d times", i, c)
		}
	}
}

func TestBuildInvariants(t *testing.T) {
	for _, n := range []int{1, 2, 10, 257, 4000} {
		for _, leaf := range []int{1, 16} {
			pts := randPoints(n, 3, int64(n))
			tr := BuildMetric(pts, leaf, metric.L2{})
			checkTree(t, tr)
		}
	}
}

func TestBuildDuplicatePoints(t *testing.T) {
	pts := geometry.NewPoints(64, 2) // all zeros
	tr := BuildMetric(pts, 1, metric.L2{})
	checkTree(t, tr)
	if tr.Root.Radius != 0 {
		t.Fatal("radius of identical points should be 0")
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	pts := randPoints(300, 3, 9)
	tr := BuildMetric(pts, 8, metric.L2{})
	for _, k := range []int{1, 2, 5, 17} {
		for q := 0; q < pts.N; q += 13 {
			got := tr.KNN(int32(q), k)
			ds := make([]float64, pts.N)
			for j := 0; j < pts.N; j++ {
				ds[j] = pts.Dist(q, j)
			}
			sort.Float64s(ds)
			if len(got) != k {
				t.Fatalf("k=%d: got %d neighbors", k, len(got))
			}
			for i, nb := range got {
				if math.Abs(nb.Dist-ds[i]) > 1e-9 {
					t.Fatalf("k=%d q=%d: neighbor %d dist %v, want %v", k, q, i, nb.Dist, ds[i])
				}
			}
			if got[0].Idx != int32(q) || got[0].Dist != 0 {
				t.Fatalf("nearest neighbor of %d is not itself", q)
			}
		}
	}
}

func TestCoreDistancesMatchBruteForce(t *testing.T) {
	pts := randPoints(200, 2, 10)
	tr := BuildMetric(pts, 4, metric.L2{})
	for _, minPts := range []int{1, 2, 3, 10} {
		cd := tr.CoreDistances(minPts)
		for i := 0; i < pts.N; i++ {
			ds := make([]float64, pts.N)
			for j := 0; j < pts.N; j++ {
				ds[j] = pts.Dist(i, j)
			}
			sort.Float64s(ds)
			want := ds[minPts-1]
			if minPts == 1 {
				want = 0
			}
			if math.Abs(cd[i]-want) > 1e-9 {
				t.Fatalf("minPts=%d: cd[%d]=%v, want %v", minPts, i, cd[i], want)
			}
		}
	}
}

func TestAnnotateCoreDists(t *testing.T) {
	pts := randPoints(500, 3, 11)
	tr := BuildMetric(pts, 1, metric.L2{})
	cd := tr.CoreDistances(5)
	tr.AnnotateCoreDists(cd)
	var walk func(n *Node)
	walk = func(n *Node) {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, p := range positions(n) {
			// Node points are kd-order positions; cd is in original order.
			lo = math.Min(lo, cd[tr.Orig[p]])
			hi = math.Max(hi, cd[tr.Orig[p]])
			if tr.CoreDist[p] != cd[tr.Orig[p]] {
				t.Fatal("kd-order CoreDist copy disagrees with original-order cd")
			}
		}
		if n.CDMin != lo || n.CDMax != hi {
			t.Fatalf("node cd bounds [%v,%v], want [%v,%v]", n.CDMin, n.CDMax, lo, hi)
		}
		if !n.IsLeaf() {
			walk(tr.LeftOf(n))
			walk(tr.RightOf(n))
		}
	}
	walk(tr.Root)
}

func TestRefreshComponents(t *testing.T) {
	pts := randPoints(100, 2, 12)
	tr := BuildMetric(pts, 2, metric.L2{})
	uf := unionfind.New(pts.N)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 60; i++ {
		uf.Union(int32(rng.Intn(pts.N)), int32(rng.Intn(pts.N)))
	}
	comp := tr.RefreshComponentsInto(uf, make([]int32, pts.N))
	for i := range comp {
		if comp[i] != uf.Find(int32(i)) {
			t.Fatal("per-point component label wrong")
		}
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		pts := positions(n)
		same := true
		for _, p := range pts[1:] {
			if comp[p] != comp[pts[0]] {
				same = false
			}
		}
		if same && n.Comp != comp[pts[0]] {
			t.Fatal("uniform node not labeled with its component")
		}
		if !same && n.Comp != -1 {
			t.Fatal("mixed node not labeled -1")
		}
		if !n.IsLeaf() {
			walk(tr.LeftOf(n))
			walk(tr.RightOf(n))
		}
	}
	walk(tr.Root)
}

func bruteBCCP(pts geometry.Points, m Metric, a, b []int32) BCCPResult {
	best := BCCPResult{U: -1, V: -1, W: math.Inf(1)}
	for _, p := range a {
		for _, q := range b {
			if p == q {
				continue
			}
			if d := m.Dist(p, q); d < best.W {
				best = BCCPResult{U: p, V: q, W: d}
			}
		}
	}
	return best
}

func TestBCCPEuclidean(t *testing.T) {
	pts := randPoints(400, 3, 14)
	tr := BuildMetric(pts, 4, metric.L2{})
	m := NewEuclidean(tr)
	a, b := tr.LeftOf(tr.Root), tr.RightOf(tr.Root)
	got := BCCP(tr, m, a, b)
	want := bruteBCCP(tr.Pts, m, positions(a), positions(b))
	if math.Abs(got.W-want.W) > 1e-12 {
		t.Fatalf("BCCP weight %v, want %v", got.W, want.W)
	}
	// deeper node pairs
	if !a.IsLeaf() && !b.IsLeaf() {
		got = BCCP(tr, m, tr.LeftOf(a), tr.RightOf(b))
		want = bruteBCCP(tr.Pts, m, positions(tr.LeftOf(a)), positions(tr.RightOf(b)))
		if math.Abs(got.W-want.W) > 1e-12 {
			t.Fatalf("deep BCCP weight %v, want %v", got.W, want.W)
		}
	}
}

func TestBCCPMutualReachability(t *testing.T) {
	pts := randPoints(300, 2, 15)
	tr := BuildMetric(pts, 4, metric.L2{})
	cd := tr.CoreDistances(5)
	tr.AnnotateCoreDists(cd)
	m := NewMutualReachability(tr)
	a, b := tr.LeftOf(tr.Root), tr.RightOf(tr.Root)
	got := BCCP(tr, m, a, b)
	want := bruteBCCP(tr.Pts, m, positions(a), positions(b))
	if math.Abs(got.W-want.W) > 1e-12 {
		t.Fatalf("BCCP* weight %v, want %v", got.W, want.W)
	}
}

func TestMetricBoundsQuick(t *testing.T) {
	pts := randPoints(256, 3, 16)
	tr := BuildMetric(pts, 4, metric.L2{})
	cd := tr.CoreDistances(4)
	tr.AnnotateCoreDists(cd)
	metrics := []Metric{NewEuclidean(tr), NewMutualReachability(tr)}
	var nodes []*Node
	var collect func(n *Node)
	collect = func(n *Node) {
		nodes = append(nodes, n)
		if !n.IsLeaf() {
			collect(tr.LeftOf(n))
			collect(tr.RightOf(n))
		}
	}
	collect(tr.Root)
	f := func(ai, bi uint16, mi bool) bool {
		a := nodes[int(ai)%len(nodes)]
		b := nodes[int(bi)%len(nodes)]
		m := metrics[0]
		if mi {
			m = metrics[1]
		}
		lb, ub := m.NodeLB(a, b), m.NodeUB(a, b)
		for _, p := range positions(a) {
			for _, q := range positions(b) {
				if p == q {
					continue
				}
				d := m.Dist(p, q)
				if d < lb-1e-9 || d > ub+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
