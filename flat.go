package parclust

import (
	"parclust/internal/optics"
)

// Flat clustering entry points complementing the hierarchy: the classic
// single-radius DBSCAN/DBSCAN* baselines, the stability-based automatic
// extraction from an HDBSCAN* hierarchy, and the classic OPTICS ordering.
// Each one-shot function is a thin wrapper over a throwaway Index; build an
// Index explicitly to amortize the tree and core-distance stages across
// repeated queries. The shared tree uses leaf size 1 (the WSPD
// requirement) where the standalone flat implementations historically used
// 16 — results are identical (labels are traversal-order independent), at
// a modest constant-factor cost per one-shot range query that buying into
// the shared pipeline accepts.

// DBSCANStar computes the flat DBSCAN* clustering of Campello et al. at a
// single radius eps: points with at least minPts neighbors within eps
// (counting themselves) are core points, clusters are eps-connected
// components of core points, everything else is noise. Equivalent to
// HDBSCAN(pts, minPts).ClustersAt(eps), but computed directly; prefer an
// Index (or the hierarchy) when several parameters will be explored.
func DBSCANStar(pts Points, minPts int, eps float64) (Clustering, error) {
	return DBSCANStarMetric(pts, minPts, eps, MetricL2)
}

// DBSCANStarMetric is DBSCANStar with neighborhoods taken under the given
// metric kernel (for MetricSqL2, eps is compared against squared
// distances).
func DBSCANStarMetric(pts Points, minPts int, eps float64, m Metric) (Clustering, error) {
	idx, err := NewIndex(pts, &IndexOptions{Metric: m})
	if err != nil {
		return Clustering{}, err
	}
	return idx.DBSCANStar(minPts, eps)
}

// DBSCAN computes the original Ester et al. clustering, which additionally
// assigns border points (non-core points within eps of a core point) to the
// cluster of their nearest core neighbor.
func DBSCAN(pts Points, minPts int, eps float64) (Clustering, error) {
	return DBSCANMetric(pts, minPts, eps, MetricL2)
}

// DBSCANMetric is DBSCAN with neighborhoods and border attachment taken
// under the given metric kernel.
func DBSCANMetric(pts Points, minPts int, eps float64, m Metric) (Clustering, error) {
	idx, err := NewIndex(pts, &IndexOptions{Metric: m})
	if err != nil {
		return Clustering{}, err
	}
	return idx.DBSCAN(minPts, eps)
}

// ExtractStableClusters runs the stability-based (excess of mass) flat
// extraction of Campello et al. on the hierarchy's dendrogram: the
// dendrogram is condensed with the given minimum cluster size and the
// non-overlapping set of clusters maximizing total stability is returned.
// This is the standard "automatic" HDBSCAN* clustering that requires no
// radius parameter.
func (h *Hierarchy) ExtractStableClusters(minClusterSize int) Clustering {
	return h.stage.Dendro.ExtractStable(minClusterSize)
}

// OPTICSEntry is one position of a classic OPTICS ordering.
type OPTICSEntry = optics.Entry

// OPTICS computes the classic sequential OPTICS ordering of Ankerst et al.
// with neighborhood radius eps (use math.Inf(1) for the unbounded variant).
// It exists as a reference implementation; for large inputs prefer
// HDBSCAN(...).ReachabilityPlot(), which computes the same kind of plot
// through the parallel pipeline.
func OPTICS(pts Points, minPts int, eps float64) ([]OPTICSEntry, error) {
	return OPTICSMetric(pts, minPts, eps, MetricL2)
}

// OPTICSMetric is OPTICS with distances, core distances, and neighborhoods
// taken under the given metric kernel.
func OPTICSMetric(pts Points, minPts int, eps float64, m Metric) ([]OPTICSEntry, error) {
	idx, err := NewIndex(pts, &IndexOptions{Metric: m})
	if err != nil {
		return nil, err
	}
	return idx.OPTICS(minPts, eps)
}
