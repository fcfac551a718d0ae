package wspd

import (
	"math"
	"testing"

	"parclust/internal/kdtree"
	"parclust/internal/metric"
)

// TestMetricSeparations: under every non-Euclidean kernel, both kernel
// separations yield a WSPD (every point pair covered exactly once); every
// pair of the geometric one keeps its cross distances at or above both
// sides' realized diameters (the property the MST cycle argument needs);
// and the disjunctive mutual-unreachability separation never needs more
// pairs than the geometric one.
func TestMetricSeparations(t *testing.T) {
	for _, m := range metric.All() {
		if metric.IsL2(m) {
			continue
		}
		pts := randPoints(150, 3, 41)
		if _, ok := m.(metric.Angular); ok {
			norm, err := metric.NormalizeRows(pts)
			if err != nil {
				t.Fatal(err)
			}
			pts = norm
		}
		tr := kdtree.BuildMetric(pts, 1, m)
		tr.AnnotateCoreDists(tr.CoreDistances(5))
		dist := func(u, v int32) float64 { return m.Dist(tr.Pts.At(int(u)), tr.Pts.At(int(v))) }
		diam := func(side []int32) float64 {
			d := 0.0
			for _, u := range side {
				for _, v := range side {
					d = math.Max(d, dist(u, v))
				}
			}
			return d
		}

		geo := Decompose(tr, MetricGeometric{M: m, S: 2}, nil)
		checkRealization(t, pts, tr, geo)
		for _, pr := range geo {
			a, b := positions(pr.A), positions(pr.B)
			limit := math.Max(diam(a), diam(b))
			for _, u := range a {
				for _, v := range b {
					if d := dist(u, v); d < limit-1e-9 {
						t.Fatalf("%s: cross distance %v below side diameter %v", m.Name(), d, limit)
					}
				}
			}
		}

		mu := Decompose(tr, MetricMutualUnreachable{M: m}, nil)
		checkRealization(t, pts, tr, mu)
		if len(mu) > len(geo) {
			t.Fatalf("%s: mutual separation needs %d pairs, geometric %d", m.Name(), len(mu), len(geo))
		}
	}
}

// TestDecomposeForksMatchCount runs the traversal above the spawn
// threshold: the pairs the parallel Decompose returns cover n(n-1)/2
// point pairs in total, so a fork that drops or repeats pairs fails.
func TestDecomposeForksMatchCount(t *testing.T) {
	pts := randPoints(3*spawnSize, 2, 13)
	tr := kdtree.BuildMetric(pts, 1, metric.L2{})
	tr.AnnotateCoreDists(tr.CoreDistances(5))
	for _, sep := range []Separation{Geometric{S: 2}, MutualUnreachable{}} {
		pairs := Decompose(tr, sep, nil)
		covered := 0
		for _, pr := range pairs {
			covered += pr.A.Size() * pr.B.Size()
		}
		if want := pts.N * (pts.N - 1) / 2; covered != want {
			t.Fatalf("%T: pairs cover %d point pairs, want %d", sep, covered, want)
		}
	}
}
