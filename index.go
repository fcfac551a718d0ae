package parclust

import (
	"context"
	"fmt"
	"math"

	"parclust/internal/dbscan"
	"parclust/internal/engine"
	"parclust/internal/hdbscan"
	"parclust/internal/kdtree"
	"parclust/internal/optics"
)

// ErrOverloaded is returned by queries that needed a cold stage build while
// the Index's build gate (SetBuildGate) was saturated. Nothing was built;
// queries over already-memoized stages are unaffected.
var ErrOverloaded = engine.ErrOverloaded

// Neighbor is one k-NN result entry: an original point id and its
// tree-metric distance to the query point.
type Neighbor = kdtree.Neighbor

// IndexOptions configures NewIndex. The zero value (and a nil pointer)
// selects the defaults.
type IndexOptions struct {
	// Metric is the distance kernel every query runs under
	// (default MetricL2).
	Metric Metric

	// Float32 opts the Index into the float32 SoA fast path: the k-d tree
	// carries a dimension-blocked float32 copy of the points and KNN, core
	// distances, range queries, BCCP, and Borůvka run hand-unrolled lane
	// scans over it. Exact float64 remains the default; see WithFloat32 and
	// the precision contract in the package documentation.
	Float32 bool
}

// WithFloat32 returns o (allocating one if nil) with the float32 fast path
// enabled, so call sites can write
// NewIndex(pts, parclust.WithFloat32()) or chain it onto existing options.
//
// Precision contract: pruning bounds stay exact float64, point-pair
// distances are computed in float32 comparison space (squared Euclidean
// for l2/sql2/angular; the metric itself for l1/linf) and widened to
// float64 for every cross-candidate comparison, so results differ from the
// float64 path only by float32 rounding of individual distances — bounded
// relative error on MST weights and merge heights, and possible label
// flips only for points whose assignment is decided at float32 resolution.
// Coordinates must stay within metric.MaxAbsCoord32 (≈1.3e17 at dim 128);
// NewIndex rejects the dataset otherwise, so squared-space accumulation
// can never overflow to ±Inf.
func (o *IndexOptions) WithFloat32() *IndexOptions {
	if o == nil {
		o = &IndexOptions{}
	}
	o.Float32 = true
	return o
}

// WithFloat32 returns fresh IndexOptions with the float32 fast path
// enabled and the default metric.
func WithFloat32() *IndexOptions { return (&IndexOptions{}).WithFloat32() }

// Index is a reusable, build-once/query-many handle over one immutable
// point set: it decomposes the clustering pipeline into explicit stages —
//
//	tree ──> coreDist(minPts) ──> mst(algo, minPts) ──> dendrogram + cut
//
// — and memoizes each stage output keyed on its parameters, so every query
// reuses whatever upstream work previous queries already paid for.
// HDBSCAN, DBSCAN, OPTICS, EMST, SingleLinkage, and KNN all share one tree
// build (and one kd-order permutation); changing minPts recomputes only
// core distances and the MST, not the tree; changing eps recomputes nothing
// but the precomputed dendrogram cut. Stats reports per-stage cache
// hits/misses.
//
// # Concurrency
//
// An Index is safe for concurrent use by multiple goroutines. Memoized
// stage outputs are immutable after publication and are read without
// locking; stage computation (a cache miss) is serialized internally, so
// concurrent first queries for the same parameters compute the stage once.
// Pure read queries (KNN, RangeQuery, DBSCAN, OPTICS, flat cuts) run
// concurrently with each other and with an in-flight stage computation.
// Results that expose shared stage outputs — Hierarchy.MST,
// Hierarchy.CoreDist, CoreDistances — must be treated as read-only; the
// same applies to the points passed to NewIndex, which the Index keeps a
// reference to (the angular kernel excepted, which normalizes into a
// private copy).
//
// Repeated queries with equal parameters return results backed by the same
// memoized stage data; all results are byte-identical to the one-shot
// package-level functions, which are themselves thin wrappers over a
// throwaway Index.
type Index struct {
	metric Metric
	eng    *engine.Engine

	// ctx, when non-nil, bounds every cold stage build this handle
	// triggers (see WithContext). nil means context.Background().
	ctx context.Context
}

// WithContext returns a handle sharing this Index's memoized stages whose
// queries are bounded by ctx: a cold stage build checks ctx before
// starting, a parked duplicate request abandons its wait when ctx is done,
// and a running build is cooperatively cancelled once every request
// interested in it is gone (the query then returns ctx.Err()). Queries
// served from memoized stages never fail. The parent Index is unaffected.
func (ix *Index) WithContext(ctx context.Context) *Index {
	c := *ix
	c.ctx = ctx
	return &c
}

// SetBuildGate installs an admission gate consulted before every cold
// stage build: gate() either admits (returning a release func the engine
// calls when the build finishes) or rejects, failing the query with
// ErrOverloaded. Coalesced duplicate requests ride the admitted leader and
// never consume extra capacity; memoized reads bypass the gate entirely.
func (ix *Index) SetBuildGate(gate func() (release func(), ok bool)) {
	ix.eng.SetBuildGate(gate)
}

// NewIndex validates pts and returns an Index over it. Coordinates must be
// finite and within a magnitude bound past which a distance overflows:
// metric.MaxAbsCoord64 under MetricL2 and MetricSqL2, MaxFloat64/(8·dim)
// under MetricL1 and MaxFloat64/8 under MetricLInf (the bound covers the
// distance kernels, not EMSTDelaunay2D's predicates). The points are
// captured by reference (except under MetricAngular, which stores a
// unit-normalized copy) and must not be mutated while the Index is in use.
func NewIndex(pts Points, opts *IndexOptions) (*Index, error) {
	m := MetricL2
	f32 := false
	if opts != nil {
		m = opts.Metric
		f32 = opts.Float32
	}
	prepared, kern, err := prepareMetric(pts, m)
	if err != nil {
		return nil, err
	}
	ix := &Index{metric: m, eng: engine.New(prepared, kern)}
	if f32 {
		if err := ix.eng.EnableFloat32(); err != nil {
			return nil, fmt.Errorf("parclust: %w", err)
		}
	}
	return ix, nil
}

// Float32 reports whether the Index runs on the float32 fast path.
func (ix *Index) Float32() bool { return ix.eng.Float32() }

// N returns the number of live indexed points: the initial rows plus
// Inserts, minus Deletes.
func (ix *Index) N() int { return ix.eng.N() }

// Dim returns the dimensionality of the indexed points.
func (ix *Index) Dim() int { return ix.eng.Dim() }

// Metric returns the distance kernel the Index runs under.
func (ix *Index) Metric() Metric { return ix.metric }

// IndexStats is a snapshot of an Index's per-stage cache counters: Builds
// count stage executions (misses), Hits count queries served from a
// memoized stage, and Coalesced counts queries that parked on another
// goroutine's in-flight build of the same stage (the singleflight
// outcome). After any number of queries over one dataset,
// TreeBuilds == 1 and MSTBuilds equals the number of distinct
// (pipeline, algorithm, minPts) combinations queried.
type IndexStats = engine.Counters

// Stats returns a snapshot of the per-stage cache counters.
func (ix *Index) Stats() IndexStats { return ix.eng.Counters() }

// ApproxBytes estimates the resident memory of a warm Index in bytes: the
// retained input rows, the k-d tree (kd-ordered point copy, ~2n arena
// nodes with their [lo|hi|ctr] geometry blocks, the two permutations), a
// fully-exercised stage cache (an allowance of four core-distance sets,
// two MST edge lists, and the dendrogram + cut structures), plus the
// actual resident size of the cut-result caches (the one component that
// grows after warmup — each cached cut retains ~4·n bytes of labels,
// bounded per hierarchy stage). The serving registry charges this estimate
// against its -max-bytes budget at upload time and re-charges it after
// sweep traffic has populated the cut caches; it is a sizing model, not an
// accounting of live allocations, and deliberately errs on the warm side
// so a budget holds under sweep traffic.
func (ix *Index) ApproxBytes() int64 {
	n, dim := int64(ix.N()), int64(ix.Dim())
	if n == 0 {
		return 4096
	}
	pts := 8 * n * dim                      // caller's rows, retained by reference
	tree := 8*n*dim + 2*n*(24*dim+64) + 8*n // kd-order copy + node slab/geometry + Orig/Inv
	cache := 4*8*n + 2*24*n + 96*n          // core-distance sets + MSTs + dendrogram/cutter
	var f32 int64
	if ix.eng.Float32() {
		f32 = 8 * n * dim // float32 row copy + SoA panels (4 bytes each)
	}
	var dyn int64
	if info := ix.eng.DynInfo(); info.Dirty {
		// Uncompacted mutations: overlay rows plus the external-id and
		// dense-id maps kept alive until the next compaction.
		dyn = 8*int64(info.Overlay)*dim + 24*n
	}
	return pts + tree + cache + f32 + dyn + ix.eng.CutCacheBytes() + 4096
}

// HDBSCAN returns the memoized HDBSCAN* hierarchy for minPts (default
// space-efficient algorithm). The first call per minPts computes core
// distances and the mutual-reachability MST over the shared tree; later
// calls are cache hits.
func (ix *Index) HDBSCAN(minPts int) (*Hierarchy, error) {
	return ix.HDBSCANWithAlgorithm(minPts, HDBSCANMemoGFK)
}

// HDBSCANWithAlgorithm is HDBSCAN with an explicit MST algorithm choice.
func (ix *Index) HDBSCANWithAlgorithm(minPts int, algo HDBSCANAlgorithm) (*Hierarchy, error) {
	if minPts < 1 {
		return nil, fmt.Errorf("parclust: minPts must be >= 1, got %d", minPts)
	}
	if n := ix.N(); minPts > n && n > 0 {
		return nil, fmt.Errorf("parclust: minPts=%d exceeds number of points %d", minPts, n)
	}
	ha, err := hdbscanAlgoFor(algo)
	if err != nil {
		return nil, err
	}
	st, err := ix.eng.Hierarchy(ix.ctx, engine.KindHDBSCAN, uint8(ha), minPts)
	if err != nil {
		return nil, err
	}
	return newHierarchy(st, minPts), nil
}

// SingleLinkage returns the memoized single-linkage hierarchy (the ordered
// dendrogram over the EMST).
func (ix *Index) SingleLinkage() (*Hierarchy, error) {
	st, err := ix.eng.Hierarchy(ix.ctx, engine.KindEMST, uint8(engine.EMSTMemoGFK), 1)
	if err != nil {
		return nil, err
	}
	return newHierarchy(st, 1), nil
}

// EMST returns the memoized minimum spanning tree under the Index's kernel
// with the default (MemoGFK) algorithm. The returned slice is shared and
// must be treated as read-only.
func (ix *Index) EMST() ([]Edge, error) {
	return ix.EMSTWithAlgorithm(EMSTMemoGFK)
}

// EMSTWithAlgorithm is EMST with an explicit algorithm choice.
// EMSTDelaunay2D requires MetricL2 and 2D points.
func (ix *Index) EMSTWithAlgorithm(algo EMSTAlgorithm) ([]Edge, error) {
	edges, _, err := ix.emst(algo)
	return edges, err
}

// EMSTBuildReport returns the build report of the memoized MST for algo
// (see Hierarchy.BuildReport), building the MST first if no query has.
func (ix *Index) EMSTBuildReport(algo EMSTAlgorithm) (Stats, error) {
	_, rep, err := ix.emst(algo)
	return rep, err
}

func (ix *Index) emst(algo EMSTAlgorithm) ([]Edge, Stats, error) {
	if ix.N() <= 1 {
		return nil, Stats{}, nil
	}
	ea, err := emstAlgoFor(algo)
	if err != nil {
		return nil, Stats{}, err
	}
	if algo == EMSTDelaunay2D {
		if ix.metric != MetricL2 {
			return nil, Stats{}, fmt.Errorf("parclust: %v requires the l2 metric, got %v", algo, ix.metric)
		}
		if ix.Dim() != 2 {
			return nil, Stats{}, fmt.Errorf("parclust: %v requires 2D points, got %dD", algo, ix.Dim())
		}
	}
	return ix.eng.EMST(ix.ctx, ea)
}

// DBSCANStar computes the flat DBSCAN* clustering at (minPts, eps) over
// the shared tree: repeated queries never rebuild it, only the per-call
// range queries run. For sweeps over many eps at one minPts,
// HDBSCAN(minPts) followed by ClustersAt is cheaper still (each cut is
// near-O(n) off the precomputed merge order).
func (ix *Index) DBSCANStar(minPts int, eps float64) (Clustering, error) {
	r, done, err := ix.dbscanStar(minPts, eps)
	if err != nil || done {
		return r, err
	}
	t, err := ix.eng.CanonTree(ix.ctx)
	if err != nil {
		return Clustering{}, err
	}
	res := ix.dbscanResult(t, minPts, eps)
	return Clustering{Labels: res.Labels, NumClusters: res.NumClusters}, nil
}

// DBSCAN computes the original Ester et al. clustering (DBSCAN* plus
// border-point attachment) at (minPts, eps) over the shared tree.
func (ix *Index) DBSCAN(minPts int, eps float64) (Clustering, error) {
	r, done, err := ix.dbscanStar(minPts, eps)
	if err != nil || done {
		return r, err
	}
	t, err := ix.eng.CanonTree(ix.ctx)
	if err != nil {
		return Clustering{}, err
	}
	core := ix.dbscanResult(t, minPts, eps)
	res := dbscan.AttachBorders(t, core, eps)
	return Clustering{Labels: res.Labels, NumClusters: res.NumClusters}, nil
}

// dbscanStar handles the validation and degenerate cases shared by DBSCAN
// and DBSCANStar; done reports that the returned clustering is final.
func (ix *Index) dbscanStar(minPts int, eps float64) (Clustering, bool, error) {
	if minPts < 1 || eps < 0 || math.IsNaN(eps) {
		return Clustering{}, false, fmt.Errorf("parclust: invalid minPts=%d or eps=%v", minPts, eps)
	}
	if minPts > ix.N() {
		// No point can have minPts neighbors: everything is noise, and
		// border attachment has no clusters to attach to.
		return allNoise(ix.N()), true, nil
	}
	return Clustering{}, false, nil
}

// dbscanResult runs the core-point DBSCAN* computation over the given
// canonical tree (one coherent tree serves core flags, components, and
// border attachment even if a mutation lands mid-query). Core flags come
// from range counts — the definition every DBSCAN entry point has always
// used — not from the sqrt'd memoized core distances, whose double rounding
// could flip boundary-eps cases.
func (ix *Index) dbscanResult(t *kdtree.Tree, minPts int, eps float64) dbscan.Result {
	return dbscan.StarWithCore(t, dbscan.CoreByRangeCount(t, minPts, eps), eps)
}

// OPTICS computes the classic sequential OPTICS ordering at (minPts, eps)
// over the shared tree and memoized core distances.
func (ix *Index) OPTICS(minPts int, eps float64) ([]OPTICSEntry, error) {
	if minPts < 1 {
		return nil, fmt.Errorf("parclust: invalid minPts=%d", minPts)
	}
	if n := ix.N(); minPts > n && n > 0 {
		return nil, fmt.Errorf("parclust: minPts=%d exceeds number of points %d", minPts, n)
	}
	if math.IsNaN(eps) || eps < 0 {
		return nil, fmt.Errorf("parclust: invalid eps=%v", eps)
	}
	if ix.N() == 0 {
		return nil, nil
	}
	// The tree and the core distances come from one fetch, so a mutation
	// landing between two stage reads cannot pair them across point sets.
	t, cd, err := ix.eng.CoreDistTree(ix.ctx, minPts)
	if err != nil {
		return nil, err
	}
	return optics.RunOnTree(t, cd, eps, false), nil
}

// KNN returns the k nearest neighbors of the indexed point with dense id q,
// sorted by increasing tree-metric distance. Equal distances come in a
// deterministic but unspecified order, so q itself is included unless more
// than k points lie at distance 0 from it. On a mutated Index the overlay
// is merged and tombstones are skipped, so the distances match a fresh
// Index over the live rows, though which of several equidistant points are
// returned may differ. A k above the live point count returns every live
// point.
func (ix *Index) KNN(q int32, k int) ([]Neighbor, error) {
	if q < 0 || int(q) >= ix.N() {
		return nil, fmt.Errorf("parclust: point id %d out of range [0, %d)", q, ix.N())
	}
	if k < 1 {
		return nil, fmt.Errorf("parclust: k must be >= 1, got %d", k)
	}
	var ws kdtree.KNNWorkspace
	return ix.eng.KNNLive(ix.ctx, int(q), k, &ws)
}

// RangeQuery returns the dense ids of all indexed points within
// tree-metric distance r of the point with dense id q (including q
// itself), in no particular order. On a mutated Index the overlay is
// merged and tombstones are skipped.
func (ix *Index) RangeQuery(q int32, r float64) ([]int32, error) {
	if q < 0 || int(q) >= ix.N() {
		return nil, fmt.Errorf("parclust: point id %d out of range [0, %d)", q, ix.N())
	}
	if r < 0 || math.IsNaN(r) {
		return nil, fmt.Errorf("parclust: invalid radius %v", r)
	}
	return ix.eng.RangeLive(ix.ctx, int(q), r)
}

// RangeCount returns the number of indexed points within tree-metric
// distance r of the point with dense id q (including q itself), counting
// overlay inserts and excluding tombstoned points on a mutated Index.
func (ix *Index) RangeCount(q int32, r float64) (int, error) {
	if q < 0 || int(q) >= ix.N() {
		return 0, fmt.Errorf("parclust: point id %d out of range [0, %d)", q, ix.N())
	}
	if r < 0 || math.IsNaN(r) {
		return 0, fmt.Errorf("parclust: invalid radius %v", r)
	}
	return ix.eng.RangeCountLive(ix.ctx, int(q), r)
}

// CoreDistances returns the memoized per-point core distances for minPts
// (the distance to the minPts-th nearest neighbor counting the point
// itself), in original id order. The returned slice is shared and must be
// treated as read-only.
func (ix *Index) CoreDistances(minPts int) ([]float64, error) {
	if minPts < 1 {
		return nil, fmt.Errorf("parclust: minPts must be >= 1, got %d", minPts)
	}
	if n := ix.N(); minPts > n && n > 0 {
		return nil, fmt.Errorf("parclust: minPts=%d exceeds number of points %d", minPts, n)
	}
	return ix.eng.CoreDist(ix.ctx, minPts)
}

func allNoise(n int) Clustering {
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	return Clustering{Labels: labels, NumClusters: 0}
}

// emstAlgoFor maps the public EMST algorithm constants to the engine's.
func emstAlgoFor(algo EMSTAlgorithm) (engine.EMSTAlgo, error) {
	switch algo {
	case EMSTMemoGFK:
		return engine.EMSTMemoGFK, nil
	case EMSTGFK:
		return engine.EMSTGFK, nil
	case EMSTNaive:
		return engine.EMSTNaive, nil
	case EMSTBoruvka:
		return engine.EMSTBoruvka, nil
	case EMSTDelaunay2D:
		return engine.EMSTDelaunay2D, nil
	case EMSTWSPDBoruvka:
		return engine.EMSTWSPDBoruvka, nil
	default:
		return 0, fmt.Errorf("parclust: unknown EMST algorithm %v", algo)
	}
}

// hdbscanAlgoFor maps the public HDBSCAN algorithm constants to the
// internal package's.
func hdbscanAlgoFor(algo HDBSCANAlgorithm) (hdbscan.Algorithm, error) {
	switch algo {
	case HDBSCANMemoGFK:
		return hdbscan.MemoGFK, nil
	case HDBSCANGanTao:
		return hdbscan.GanTao, nil
	case HDBSCANGanTaoFull:
		return hdbscan.GanTaoFull, nil
	default:
		return 0, fmt.Errorf("parclust: unknown HDBSCAN algorithm %v", algo)
	}
}
