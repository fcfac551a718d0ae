package mst

import (
	"math"
	"testing"

	"parclust/internal/geometry"
	"parclust/internal/kdtree"
	"parclust/internal/metric"
	"parclust/internal/wspd"
)

// metricConfig builds a Config the way the engine does for a non-L2
// kernel: PointDist edge weights and metric-aware well-separation, which
// runs GFK/MemoGFK in metric space with the generic BCCP.
func metricConfig(pts geometry.Points, m metric.Metric) Config {
	tr := kdtree.BuildMetric(pts, 1, m)
	return Config{
		Tree:   tr,
		Metric: kdtree.NewPointDist(tr),
		Sep:    wspd.MetricGeometric{M: m, S: 2},
		Stats:  NewStats(),
	}
}

// primDense is the oracle: O(n^2) Prim over the raw metric.
func primDense(pts geometry.Points, m metric.Metric) float64 {
	n := pts.N
	inTree := make([]bool, n)
	best := make([]float64, n)
	for i := range best {
		best[i] = math.Inf(1)
	}
	best[0] = 0
	total := 0.0
	for range n {
		u := -1
		for v := 0; v < n; v++ {
			if !inTree[v] && (u < 0 || best[v] < best[u]) {
				u = v
			}
		}
		inTree[u] = true
		total += best[u]
		pu := pts.Data[u*pts.Dim : (u+1)*pts.Dim]
		for v := 0; v < n; v++ {
			if !inTree[v] {
				if d := m.Dist(pu, pts.Data[v*pts.Dim:(v+1)*pts.Dim]); d < best[v] {
					best[v] = d
				}
			}
		}
	}
	return total
}

// TestGenericMetricMSTAgreesWithOracle runs every WSPD-based algorithm
// through the generic-metric code path (the engine's route for l1/linf/
// angular kernels) and checks the MST weight against dense Prim. The
// in-package oracle sweep covers this path through the engine; this test
// pins it at the mst layer, where MemoGFK's getRho/getPairs traversals run
// in the metric's own space.
func TestGenericMetricMSTAgreesWithOracle(t *testing.T) {
	algos := map[string]func(Config) []Edge{
		"naive":       Naive,
		"gfk":         GFK,
		"memogfk":     MemoGFK,
		"wspdboruvka": WSPDBoruvka,
	}
	for _, m := range []metric.Metric{metric.L1{}, metric.LInf{}} {
		pts := randPoints(300, 3, 29)
		want := primDense(pts, m)
		for name, algo := range algos {
			edges := algo(metricConfig(pts, m))
			checkSpanningTree(t, pts.N, edges)
			got := TotalWeight(edges)
			if math.Abs(got-want) > 1e-9*want {
				t.Fatalf("%s under %T: weight %v, oracle %v", name, m, got, want)
			}
		}
	}
}
