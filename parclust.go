package parclust

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"parclust/internal/dendrogram"
	"parclust/internal/generator"
	"parclust/internal/geometry"
	"parclust/internal/metric"
	"parclust/internal/mst"
)

// Metric selects the distance kernel the pipeline runs under. Every
// algorithm supports every kernel except EMSTDelaunay2D and ApproxOPTICS,
// whose underlying theory is Euclidean-specific (both require MetricL2).
// The WSPD-based algorithms rely on the kernel having the doubling
// property for their O(n) pair bound; all built-in kernels qualify.
type Metric int

const (
	// MetricL2 is the Euclidean metric (the paper's setting, and the
	// default everywhere).
	MetricL2 Metric = iota
	// MetricSqL2 is squared Euclidean distance: same trees and clusters
	// as MetricL2 with all reported weights squared.
	MetricSqL2
	// MetricL1 is the Manhattan metric.
	MetricL1
	// MetricLInf is the Chebyshev metric.
	MetricLInf
	// MetricAngular is the angle in radians between points treated as
	// directions; input rows are unit-normalized internally and zero
	// vectors are rejected. The MST matches the cosine-distance MST.
	MetricAngular
)

// metricKernels maps each Metric constant to its kernel instance; the
// enum order matches metric.All(). Names and parsing come from the metric
// package, so adding a kernel means extending metric.All/metric.Parse and
// appending one constant above.
var metricKernels = metric.All()

func (m Metric) String() string {
	if m < 0 || int(m) >= len(metricKernels) {
		return fmt.Sprintf("Metric(%d)", int(m))
	}
	return metricKernels[m].Name()
}

// ParseMetric resolves a kernel name, ignoring case ("l2"/"euclidean",
// "sql2"/"sqeuclidean", "l1"/"manhattan", "linf"/"chebyshev",
// "angular"/"cosine").
func ParseMetric(name string) (Metric, error) {
	kern, err := metric.Parse(name)
	if err != nil {
		return 0, fmt.Errorf("parclust: unknown metric %q (want l2|sql2|l1|linf|angular)", name)
	}
	for i, k := range metricKernels {
		if k.Name() == kern.Name() {
			return Metric(i), nil
		}
	}
	return 0, fmt.Errorf("parclust: kernel %q has no public Metric constant", kern.Name())
}

// Metrics returns every supported kernel, in a fixed order.
func Metrics() []Metric {
	out := make([]Metric, len(metricKernels))
	for i := range out {
		out[i] = Metric(i)
	}
	return out
}

func (m Metric) kernel() (metric.Metric, error) {
	if m < 0 || int(m) >= len(metricKernels) {
		return nil, fmt.Errorf("parclust: unknown metric %v", m)
	}
	return metricKernels[m], nil
}

// prepareMetric validates pts and returns the point set the pipeline
// should run on (a unit-normalized copy for the angular kernel) together
// with the resolved kernel.
func prepareMetric(pts Points, m Metric) (Points, metric.Metric, error) {
	if err := validatePoints(pts, m); err != nil {
		return Points{}, nil, err
	}
	kern, err := m.kernel()
	if err != nil {
		return Points{}, nil, err
	}
	if m == MetricAngular {
		norm, err := metric.NormalizeRows(pts)
		if err != nil {
			return Points{}, nil, fmt.Errorf("parclust: %w", err)
		}
		return norm, kern, nil
	}
	return pts, kern, nil
}

// Points is a set of n points in d dimensions stored in a flat row-major
// buffer (point i occupies Data[i*Dim:(i+1)*Dim]).
type Points = geometry.Points

// Edge is a weighted undirected edge between point indices U < V.
type Edge = mst.Edge

// Stats is a build report: per-phase wall-clock times and the MST's work
// counters. It holds no pointers, so a report is a snapshot and two reports
// compare with ==; see Hierarchy.BuildReport.
type Stats = mst.Stats

// Phase indexes Stats.Phases in pipeline order; String names the phase.
type Phase = mst.Phase

// Dendrogram is a binary merge tree over the input points; see package
// documentation for the ordered-dendrogram property.
type Dendrogram = dendrogram.Dendrogram

// Bar is one entry of a reachability plot.
type Bar = dendrogram.Bar

// Clustering is a flat clustering with -1 labels for noise.
type Clustering = dendrogram.Clustering

// NewPoints allocates an n x dim point set.
func NewPoints(n, dim int) Points { return geometry.NewPoints(n, dim) }

// PointsFromSlices copies a slice-of-rows into a Points.
func PointsFromSlices(rows [][]float64) Points { return geometry.FromSlices(rows) }

// GenerateUniform returns n points uniform in a hypergrid of side sqrt(n)
// (the paper's UniformFill workload).
func GenerateUniform(n, dim int, seed int64) Points { return generator.UniformFill(n, dim, seed) }

// GenerateVarden returns the seed-spreader variable-density workload
// (the paper's SS-varden).
func GenerateVarden(n, dim int, seed int64) Points { return generator.SSVarden(n, dim, seed) }

// GenerateGaussianMixture returns a k-cluster Gaussian mixture.
func GenerateGaussianMixture(n, dim, k int, seed int64) Points {
	return generator.GaussianMixture(n, dim, k, seed)
}

// EMSTAlgorithm selects the EMST implementation (Section 5 names).
type EMSTAlgorithm int

const (
	// EMSTMemoGFK is the paper's fastest algorithm: parallel
	// GeoFilterKruskal with the memory optimization (Algorithm 3).
	EMSTMemoGFK EMSTAlgorithm = iota
	// EMSTGFK is parallel GeoFilterKruskal over a materialized WSPD
	// (Algorithm 2).
	EMSTGFK
	// EMSTNaive computes the BCCP of every WSPD pair up front.
	EMSTNaive
	// EMSTBoruvka runs Borůvka rounds with component-pruned nearest
	// neighbor queries (the dual-tree-Borůvka-style baseline of Table 3).
	EMSTBoruvka
	// EMSTDelaunay2D computes the MST of the Delaunay triangulation;
	// 2D inputs only (Appendix A.1).
	EMSTDelaunay2D
	// EMSTWSPDBoruvka runs Borůvka rounds over the WSPD's BCCP edges
	// (the structure of the paper's Appendix B algorithm).
	EMSTWSPDBoruvka
)

func (a EMSTAlgorithm) String() string {
	switch a {
	case EMSTMemoGFK:
		return "EMST-MemoGFK"
	case EMSTGFK:
		return "EMST-GFK"
	case EMSTNaive:
		return "EMST-Naive"
	case EMSTBoruvka:
		return "EMST-Boruvka"
	case EMSTDelaunay2D:
		return "EMST-Delaunay"
	case EMSTWSPDBoruvka:
		return "EMST-WSPDBoruvka"
	default:
		return fmt.Sprintf("EMSTAlgorithm(%d)", int(a))
	}
}

// ParseEMSTAlgorithm resolves an EMST algorithm by its wire name, ignoring
// case: memogfk (also ""), gfk, naive, boruvka, delaunay2d or wspdboruvka.
func ParseEMSTAlgorithm(name string) (EMSTAlgorithm, error) {
	switch strings.ToLower(name) {
	case "", "memogfk":
		return EMSTMemoGFK, nil
	case "gfk":
		return EMSTGFK, nil
	case "naive":
		return EMSTNaive, nil
	case "boruvka":
		return EMSTBoruvka, nil
	case "delaunay2d":
		return EMSTDelaunay2D, nil
	case "wspdboruvka":
		return EMSTWSPDBoruvka, nil
	}
	return 0, fmt.Errorf("unknown emst algo %q (want memogfk|gfk|naive|boruvka|delaunay2d|wspdboruvka)", name)
}

// EMST computes the Euclidean minimum spanning tree of pts with the
// default (MemoGFK) algorithm.
func EMST(pts Points) ([]Edge, error) { return EMSTMetric(pts, MetricL2) }

// EMSTMetric computes the minimum spanning tree of pts under the given
// metric kernel with the default (MemoGFK) algorithm. It is a thin wrapper
// over a throwaway Index; use Index.EMSTWithAlgorithm for another
// algorithm and Index.EMSTBuildReport for the build's phases and counters.
func EMSTMetric(pts Points, m Metric) ([]Edge, error) {
	idx, err := NewIndex(pts, &IndexOptions{Metric: m})
	if err != nil {
		return nil, err
	}
	return idx.EMST()
}

// validatePoints checks pts's shape and that every coordinate is finite
// and within the magnitude bound of m's float64 kernels, past which a
// distance overflows to +Inf: metric.MaxAbsCoord64 under L2 and SqL2, which
// square coordinate differences, MaxFloat64/(8·dim) under L1 and
// MaxFloat64/8 under LInf, which keep every point and box distance at most
// MaxFloat64/4. Angular rows are unit-normalized and need no bound.
func validatePoints(pts Points, m Metric) error {
	if pts.Dim <= 0 {
		return errors.New("parclust: points must have positive dimension")
	}
	if len(pts.Data) != pts.N*pts.Dim {
		return fmt.Errorf("parclust: point buffer length %d does not match n*dim=%d",
			len(pts.Data), pts.N*pts.Dim)
	}
	bound := math.Inf(1)
	switch m {
	case MetricL2, MetricSqL2:
		bound = metric.MaxAbsCoord64(pts.Dim)
	case MetricL1:
		bound = math.MaxFloat64 / (8 * float64(pts.Dim))
	case MetricLInf:
		bound = math.MaxFloat64 / 8
	}
	for i, v := range pts.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("parclust: point %d has non-finite coordinate %v in dimension %d",
				i/pts.Dim, v, i%pts.Dim)
		}
		if math.Abs(v) > bound {
			return fmt.Errorf("parclust: point %d coordinate %v in dimension %d exceeds the %v magnitude bound %.4g",
				i/pts.Dim, v, i%pts.Dim, m, bound)
		}
	}
	return nil
}
