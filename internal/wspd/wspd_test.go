package wspd

import (
	"math"
	"math/rand"
	"testing"

	"parclust/internal/geometry"
	"parclust/internal/kdtree"
	"parclust/internal/metric"
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
func positions(n *kdtree.Node) []int32 {
	out := make([]int32, 0, n.Size())
	for p := n.Lo; p < n.Hi; p++ {
		out = append(out, p)
	}
	return out
}

// checkRealization verifies WSPD properties (1)-(5) of Section 2.3:
// every unordered point pair {p, q} is covered by exactly one WSPD pair.
func checkRealization(t *testing.T, pts geometry.Points, tr *kdtree.Tree, pairs []Pair) {
	t.Helper()
	n := pts.N
	cover := make([][]int, n)
	for i := range cover {
		cover[i] = make([]int, n)
	}
	for _, pr := range pairs {
		pa, pb := positions(pr.A), positions(pr.B)
		// property (2): disjoint sides
		inA := map[int32]bool{}
		for _, p := range pa {
			inA[p] = true
		}
		for _, q := range pb {
			if inA[q] {
				t.Fatal("pair sides are not disjoint")
			}
		}
		for _, p := range pa {
			for _, q := range pb {
				cover[p][q]++
				cover[q][p]++
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if cover[i][j] != 1 {
				t.Fatalf("pair (%d,%d) covered %d times, want exactly 1", i, j, cover[i][j])
			}
		}
	}
}

func TestDecomposeRealizationGeometric(t *testing.T) {
	for _, n := range []int{2, 3, 10, 64, 200} {
		for _, dim := range []int{1, 2, 3} {
			pts := randPoints(n, dim, int64(n*10+dim))
			tr := kdtree.BuildMetric(pts, 1, metric.L2{})
			pairs := Decompose(tr, Geometric{S: 2}, nil)
			checkRealization(t, pts, tr, pairs)
		}
	}
}

func TestDecomposeRealizationMutualUnreachable(t *testing.T) {
	for _, n := range []int{2, 10, 128} {
		pts := randPoints(n, 2, int64(n))
		tr := kdtree.BuildMetric(pts, 1, metric.L2{})
		cd := tr.CoreDistances(5)
		tr.AnnotateCoreDists(cd)
		pairs := Decompose(tr, MutualUnreachable{}, nil)
		checkRealization(t, pts, tr, pairs)
	}
}

func TestEmittedPairsAreWellSeparated(t *testing.T) {
	pts := randPoints(300, 3, 77)
	tr := kdtree.BuildMetric(pts, 1, metric.L2{})
	sep := Geometric{S: 2}
	for _, pr := range Decompose(tr, sep, nil) {
		if !sep.WellSeparated(pr.A, pr.B) {
			t.Fatal("emitted pair fails the separation predicate")
		}
		// Verify the geometric meaning directly: sphere gap >= s * max radius.
		r := math.Max(pr.A.Radius, pr.B.Radius)
		if kdtree.SphereDist(pr.A, pr.B) < 2*r-1e-9 {
			t.Fatal("emitted pair violates s=2 sphere separation")
		}
	}
}

// TestMutualSeparationProducesFewerPairs checks the paper's headline space
// claim (Section 3.2.2): the disjunctive separation never produces more
// pairs than the geometric one, and on clustered data produces strictly
// fewer.
func TestMutualSeparationProducesFewerPairs(t *testing.T) {
	pts := randPoints(2000, 5, 8)
	tr := kdtree.BuildMetric(pts, 1, metric.L2{})
	cd := tr.CoreDistances(10)
	tr.AnnotateCoreDists(cd)
	geo := Count(tr, Geometric{S: 2})
	mu := Count(tr, MutualUnreachable{})
	if mu > geo {
		t.Fatalf("mutual separation produced MORE pairs (%d > %d)", mu, geo)
	}
	if mu == geo {
		t.Logf("warning: no pair reduction on this input (geo=%d mutual=%d)", geo, mu)
	}
}

func TestPairCountLinearInN(t *testing.T) {
	// WSPD size should grow roughly linearly with n (O(n) pairs, s=2).
	n1, n2 := 1000, 4000
	c1 := Count(kdtree.BuildMetric(randPoints(n1, 2, 1), 1, metric.L2{}), Geometric{S: 2})
	c2 := Count(kdtree.BuildMetric(randPoints(n2, 2, 2), 1, metric.L2{}), Geometric{S: 2})
	ratio := float64(c2) / float64(c1)
	if ratio > 8 { // 4x points should give ~4x pairs, allow slack
		t.Fatalf("pair count scaling ratio %.2f suggests super-linear WSPD size", ratio)
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := geometry.NewPoints(32, 2) // all identical
	tr := kdtree.BuildMetric(pts, 1, metric.L2{})
	pairs := Decompose(tr, Geometric{S: 2}, nil)
	checkRealization(t, pts, tr, pairs)
}
