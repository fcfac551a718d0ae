package delaunay

import (
	"math"
	"math/rand"
	"testing"

	"parclust/internal/geometry"
	"parclust/internal/kdtree"
	"parclust/internal/metric"
	"parclust/internal/mst"
	"parclust/internal/wspd"
)

func randPoints2D(n int, seed int64) geometry.Points {
	rng := rand.New(rand.NewSource(seed))
	p := geometry.NewPoints(n, 2)
	for i := range p.Data {
		p.Data[i] = rng.Float64() * 100
	}
	return p
}

// TestEmptyCircumcircle verifies the Delaunay property directly: no input
// point lies strictly inside the circumcircle of any triangle.
func TestEmptyCircumcircle(t *testing.T) {
	for _, n := range []int{3, 10, 60, 200} {
		pts := randPoints2D(n, int64(n))
		tri := Triangulate(pts)
		for _, tv := range tri.Triangles() {
			for p := int32(0); p < int32(n); p++ {
				if p == tv[0] || p == tv[1] || p == tv[2] {
					continue
				}
				if tri.inCircumcircle(tv[0], tv[1], tv[2], p) {
					// allow boundary-epsilon slack via a slightly shrunk check
					t.Fatalf("n=%d: point %d inside circumcircle of %v", n, p, tv)
				}
			}
		}
	}
}

func TestEdgeCountPlanarity(t *testing.T) {
	// A planar triangulation on n points has at most 3n-6 edges.
	pts := randPoints2D(500, 7)
	edges := Triangulate(pts).Edges()
	if len(edges) > 3*pts.N-6 {
		t.Fatalf("%d edges exceeds planar bound %d", len(edges), 3*pts.N-6)
	}
	if len(edges) < pts.N-1 {
		t.Fatalf("%d edges cannot connect %d points", len(edges), pts.N)
	}
}

// TestEMSTMatchesMemoGFK is Appendix A.1's correctness claim: the MST of
// the Delaunay triangulation is the EMST.
func TestEMSTMatchesMemoGFK(t *testing.T) {
	for _, n := range []int{2, 3, 50, 400, 2000} {
		pts := randPoints2D(n, int64(n*3))
		got := EMST(pts, nil)
		tr := kdtree.BuildMetric(pts, 1, metric.L2{})
		want := mst.MemoGFK(mst.Config{Tree: tr, Metric: kdtree.NewEuclidean(tr), Sep: wspd.Geometric{S: 2}})
		if len(got) != n-1 {
			t.Fatalf("n=%d: %d edges, want %d", n, len(got), n-1)
		}
		gw, ww := mst.TotalWeight(got), mst.TotalWeight(want)
		if math.Abs(gw-ww) > 1e-6*(1+ww) {
			t.Fatalf("n=%d: Delaunay EMST weight %v, want %v", n, gw, ww)
		}
	}
}

func TestCollinearPoints(t *testing.T) {
	// Collinear inputs are a classic degenerate case for Delaunay codes.
	n := 20
	pts := geometry.NewPoints(n, 2)
	for i := 0; i < n; i++ {
		pts.Data[2*i] = float64(i)
		pts.Data[2*i+1] = 0
	}
	got := EMST(pts, nil)
	if len(got) != n-1 {
		t.Fatalf("collinear: %d edges, want %d", len(got), n-1)
	}
	if w := mst.TotalWeight(got); math.Abs(w-float64(n-1)) > 1e-9 {
		t.Fatalf("collinear EMST weight %v, want %d", w, n-1)
	}
}

func TestGridPoints(t *testing.T) {
	// Co-circular grid points stress incircle ties.
	side := 8
	pts := geometry.NewPoints(side*side, 2)
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			pts.Data[2*(i*side+j)] = float64(i)
			pts.Data[2*(i*side+j)+1] = float64(j)
		}
	}
	got := EMST(pts, nil)
	if len(got) != pts.N-1 {
		t.Fatalf("grid: %d edges, want %d", len(got), pts.N-1)
	}
	want := float64(pts.N - 1) // grid MST uses unit edges only
	if math.Abs(mst.TotalWeight(got)-want) > 1e-9 {
		t.Fatalf("grid EMST weight %v, want %v", mst.TotalWeight(got), want)
	}
}

// TestEMSTDuplicatePoints: a repeated point joins its site at weight 0, and
// the Delaunay edges of the distinct sites stay. The EMST of this set
// weighs 1 + 2 + 0, not √5 + 1 + 0.
func TestEMSTDuplicatePoints(t *testing.T) {
	pts := geometry.FromSlices([][]float64{{0, 2}, {2, 1}, {2, 2}, {2, 1}})
	got := EMST(pts, nil)
	if len(got) != 3 || mst.TotalWeight(got) != 3 {
		t.Fatalf("EMST %v weighs %v, want 3 edges weighing 3", got, mst.TotalWeight(got))
	}
}

// TestEMSTGridMultisetsMatchPrim checks the Delaunay EMST against dense
// Prim on seeded multisets of 3-12 points drawn from 3×3 and 4×4 integer
// grids, where repeats and co-circular sites are common.
func TestEMSTGridMultisetsMatchPrim(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 1000; trial++ {
		side, n := 3+trial%2, 3+rng.Intn(10)
		pts := geometry.NewPoints(n, 2)
		for i := range pts.Data {
			pts.Data[i] = float64(rng.Intn(side))
		}
		got := EMST(pts, nil)
		want := mst.TotalWeight(mst.PrimDense(n, func(i, j int32) float64 { return pts.Dist(int(i), int(j)) }))
		if len(got) != n-1 || math.Abs(mst.TotalWeight(got)-want) > 1e-9 {
			t.Fatalf("trial %d, points %v: %d edges weighing %v, want %d weighing %v",
				trial, pts.Data, len(got), mst.TotalWeight(got), n-1, want)
		}
	}
}
