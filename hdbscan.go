package parclust

import (
	"fmt"
	"io"
	"strings"

	"parclust/internal/dendrogram"
	"parclust/internal/engine"
	"parclust/internal/hdbscan"
	"parclust/internal/mst"
)

// HDBSCANAlgorithm selects the HDBSCAN* MST implementation.
type HDBSCANAlgorithm int

const (
	// HDBSCANMemoGFK is the paper's space-efficient algorithm
	// (Section 3.2.2): MemoGFK under the new disjunctive well-separation.
	HDBSCANMemoGFK HDBSCANAlgorithm = iota
	// HDBSCANGanTao is the exact parallelized Gan-Tao baseline
	// (Section 3.2.1) with the classic geometric well-separation.
	HDBSCANGanTao
	// HDBSCANGanTaoFull is HDBSCANGanTao without the memory optimization
	// (the full WSPD is materialized).
	HDBSCANGanTaoFull
)

func (a HDBSCANAlgorithm) String() string {
	switch a {
	case HDBSCANMemoGFK:
		return "HDBSCAN*-MemoGFK"
	case HDBSCANGanTao:
		return "HDBSCAN*-GanTao"
	case HDBSCANGanTaoFull:
		return "HDBSCAN*-GanTao-Full"
	default:
		return fmt.Sprintf("HDBSCANAlgorithm(%d)", int(a))
	}
}

// ParseHDBSCANAlgorithm resolves an HDBSCAN* algorithm by its wire name,
// ignoring case: memogfk (also ""), gantao or gantaofull.
func ParseHDBSCANAlgorithm(name string) (HDBSCANAlgorithm, error) {
	switch strings.ToLower(name) {
	case "", "memogfk":
		return HDBSCANMemoGFK, nil
	case "gantao":
		return HDBSCANGanTao, nil
	case "gantaofull":
		return HDBSCANGanTaoFull, nil
	}
	return 0, fmt.Errorf("unknown hdbscan algo %q (want memogfk|gantao|gantaofull)", name)
}

// Hierarchy is a cluster hierarchy: the MST of the (mutual reachability or
// Euclidean) graph plus the ordered dendrogram built from it.
//
// A Hierarchy returned by an Index shares the Index's memoized stage
// outputs: MST and CoreDist must be treated as read-only, and all methods
// are safe for concurrent use.
type Hierarchy struct {
	N int
	// MST edges in the order Kruskal accepted them (non-decreasing weight).
	MST []Edge
	// CoreDist is each point's core distance (nil for single linkage,
	// where every point is treated as core).
	CoreDist []float64
	// MinPts is the density parameter used (1 for single linkage).
	MinPts int
	// Start is the reachability-plot start vertex of the ordered dendrogram.
	Start int32

	// stage is the hierarchy stage backing this Hierarchy: the Index's
	// memoized one, shared with equal queries, or ApproxOPTICS's own. It
	// holds the dendrogram, the build report, the cut structure and the
	// cut-result cache.
	stage *engine.HierStage
}

// newHierarchy wraps a hierarchy stage in the public type.
func newHierarchy(st *engine.HierStage, minPts int) *Hierarchy {
	return &Hierarchy{
		N:        st.N,
		MST:      st.MST,
		CoreDist: st.CoreDist,
		MinPts:   minPts,
		stage:    st,
	}
}

// HDBSCAN computes the HDBSCAN* hierarchy for pts with the default
// space-efficient algorithm and dendrogram start vertex 0.
func HDBSCAN(pts Points, minPts int) (*Hierarchy, error) {
	return HDBSCANMetric(pts, minPts, MetricL2)
}

// HDBSCANMetric computes the HDBSCAN* hierarchy with the base distance
// taken under the given metric kernel, using the default space-efficient
// algorithm: core distances, mutual reachability, and the well-separation
// predicate all run under m. It is a thin wrapper over a throwaway Index;
// use Index.HDBSCANWithAlgorithm for another MST algorithm.
func HDBSCANMetric(pts Points, minPts int, m Metric) (*Hierarchy, error) {
	idx, err := NewIndex(pts, &IndexOptions{Metric: m})
	if err != nil {
		return nil, err
	}
	return idx.HDBSCAN(minPts)
}

// SingleLinkage computes the single-linkage clustering hierarchy of pts:
// the ordered dendrogram over the EMST (Section 4).
func SingleLinkage(pts Points) (*Hierarchy, error) {
	return SingleLinkageMetric(pts, MetricL2)
}

// SingleLinkageMetric computes the single-linkage hierarchy over the MST
// under the given metric kernel. It is a thin wrapper over a throwaway
// Index.
func SingleLinkageMetric(pts Points, m Metric) (*Hierarchy, error) {
	idx, err := NewIndex(pts, &IndexOptions{Metric: m})
	if err != nil {
		return nil, err
	}
	return idx.SingleLinkage()
}

// ApproxOPTICS computes the approximate OPTICS hierarchy of Appendix C with
// approximation parameter rho > 0 (the paper evaluates rho = 0.125). Its
// (1+rho) guarantee is Euclidean-specific, so it runs under MetricL2 only.
// The hierarchy's BuildReport covers this run.
func ApproxOPTICS(pts Points, minPts int, rho float64) (*Hierarchy, error) {
	if err := validatePoints(pts, MetricL2); err != nil {
		return nil, err
	}
	if minPts < 1 || (minPts > pts.N && pts.N > 0) {
		return nil, fmt.Errorf("parclust: invalid minPts=%d for %d points", minPts, pts.N)
	}
	if !(rho > 0) { // also rejects NaN
		return nil, fmt.Errorf("parclust: rho must be > 0, got %v", rho)
	}
	// The stage belongs to no engine: its cuts count nowhere.
	st := &engine.HierStage{N: pts.N, MinPts: minPts}
	res := hdbscan.ApproxOPTICS(pts, minPts, rho, &st.Report)
	st.MST, st.CoreDist = res.MST, res.CoreDist
	st.Report.Time(mst.PhaseDendrogram, func() {
		st.Dendro = dendrogram.BuildParallel(st.N, st.MST, 0)
	})
	return newHierarchy(st, minPts), nil
}

// BuildReport returns the report of the build that produced the
// hierarchy: the phases it timed and the MST's work counters. An
// Index-backed hierarchy reports the build that published its memoized
// stage, so the caller that ran the build, callers that waited on it and
// later cache hits all read the same value. The report includes the
// upstream phases (tree, core distances, MST) only when that build ran
// them, and is zero for a hierarchy restored from a snapshot.
func (h *Hierarchy) BuildReport() Stats { return h.stage.Report }

// Dendrogram returns the ordered dendrogram of the hierarchy.
func (h *Hierarchy) Dendrogram() *Dendrogram { return h.stage.Dendro }

// ReachabilityPlot returns the OPTICS-style reachability plot: the in-order
// leaf traversal of the ordered dendrogram (Section 4.1).
func (h *Hierarchy) ReachabilityPlot() []Bar { return h.stage.Dendro.ReachabilityPlot() }

// ClustersAt extracts the flat DBSCAN* clustering at radius eps: points
// with core distance above eps are noise, remaining points are grouped by
// MST edges of weight at most eps. For single-linkage hierarchies every
// point is core. The first call precomputes the sorted merge order; every
// call after that runs in O(n) with no union-find and no edge re-walk, so
// sweeping many radii over one hierarchy is cheap. Every hierarchy, an
// ApproxOPTICS one included, also memoizes cut results per radius in a
// bounded per-stage cache, so a repeated identical cut is O(1); the
// returned Labels slice is then shared with every other caller of the same
// (stage, eps) pair and must be treated as read-only, like every other
// slice an Index exposes.
func (h *Hierarchy) ClustersAt(eps float64) Clustering {
	return h.stage.CutAt(eps)
}

// NumNoiseAt returns the number of noise points at radius eps in O(log n)
// via binary search over the precomputed sorted core distances.
func (h *Hierarchy) NumNoiseAt(eps float64) int {
	return h.stage.Cutter().NumNoiseAt(eps)
}

// TotalWeight returns the total MST weight (a scale-free summary used by
// tests and benchmarks).
func (h *Hierarchy) TotalWeight() float64 { return mst.TotalWeight(h.MST) }

// WriteNewick serializes the hierarchy's dendrogram in Newick format for
// standard dendrogram viewers; names may be nil to use point indices, and
// otherwise needs a name per point.
func (h *Hierarchy) WriteNewick(w io.Writer, names []string) error {
	return h.stage.Dendro.WriteNewick(w, names)
}
