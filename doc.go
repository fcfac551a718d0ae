// Package parclust provides fast parallel algorithms for Euclidean minimum
// spanning trees (EMST) and hierarchical density-based spatial clustering
// (HDBSCAN*), reproducing Wang, Yu, Gu, and Shun, "Fast Parallel Algorithms
// for Euclidean Minimum Spanning Tree and Hierarchical Spatial Clustering"
// (SIGMOD 2021).
//
// The library computes:
//
//   - EMSTs with the memory-optimized parallel GeoFilterKruskal algorithm
//     (MemoGFK) over a well-separated pair decomposition, plus the GFK,
//     Naive, Borůvka, and 2D-Delaunay baselines from the paper's evaluation;
//   - HDBSCAN* cluster hierarchies — MSTs of the mutual reachability graph —
//     using the paper's new disjunctive notion of well-separation, with the
//     exact Gan–Tao baseline and the approximate OPTICS variant;
//   - ordered dendrograms and reachability plots with a parallel top-down
//     divide-and-conquer algorithm, supporting single-linkage clustering and
//     DBSCAN* cluster extraction at any radius.
//
// # The Index: build once, serve many queries
//
// Index is the staged pipeline engine behind every entry point: it
// decomposes the call chain into explicit stages — k-d tree, core
// distances per minPts, MST per (pipeline, algorithm, minPts), and the
// ordered dendrogram with its precomputed cut structure — and memoizes
// each stage output keyed on its parameters. All queries over one Index
// (HDBSCAN, DBSCAN, OPTICS, EMST, SingleLinkage, KNN, RangeQuery) share a
// single tree build and kd-order permutation; changing minPts recomputes
// only core distances and the MST; changing eps recomputes nothing but the
// dendrogram cut, which runs off a precomputed sorted merge order in
// near-O(n) (NumNoiseAt in O(log n)). Index.Stats exposes per-stage cache
// hit/miss counters. The one-shot package-level functions are thin
// wrappers over a throwaway Index and behave exactly as before.
//
// Hierarchy.BuildReport and Index.EMSTBuildReport return the phase times
// (the paper's Figure 8 split) and MST work counters of the build that
// published a memoized stage; every caller of the stage reads that report.
//
// Concurrency: an Index is safe for concurrent use. Memoized stage
// outputs are immutable after publication and read without locking; stage
// computation is serialized internally (MST runs annotate the shared
// tree), and concurrent first queries for equal parameters compute the
// stage once. Pure read queries run concurrently with each other and with
// in-flight stage computation. Slices exposing shared stage data —
// Hierarchy.MST, Hierarchy.CoreDist, Index.CoreDistances — and the points
// passed to NewIndex must be treated as read-only while the Index is in
// use. Per-run MST scratch comes from a process-wide workspace pool, so an
// Index holds no mutable per-query state of its own.
//
// # Metric kernels
//
// Every algorithm is parameterized over a pluggable distance kernel
// selected by the Metric type: MetricL2 (the paper's Euclidean setting
// and the default), MetricSqL2 (squared Euclidean — same trees and
// clusters, squared weights), MetricL1 (Manhattan), MetricLInf
// (Chebyshev), and MetricAngular (the angle between points treated as
// directions; rows are unit-normalized internally and zero vectors are
// rejected). The *Metric entry points (EMSTMetric, HDBSCANMetric,
// SingleLinkageMetric, DBSCANStarMetric, DBSCANMetric, OPTICSMetric)
// accept a kernel; the unsuffixed functions run under MetricL2. Two
// algorithms are Euclidean-only by construction and reject other kernels:
// EMSTDelaunay2D (Delaunay triangulations are an L2 object) and
// ApproxOPTICS (its (1+rho) guarantee is L2-specific). The WSPD-based
// algorithms require kernels with the doubling property for their O(n)
// pair bound; all built-in kernels qualify. Correctness of every variant
// under every kernel is enforced differentially against brute-force
// oracles (package internal/oracle).
//
// All parallelism runs on a persistent work-stealing fork-join scheduler
// (package internal/parallel): a process-wide pool of GOMAXPROCS workers
// with per-worker steal queues and work-first inline execution, so nested
// forks — k-d tree build inside WSPD inside MemoGFK inside the dendrogram
// builder — cost a task handle, not a goroutine. The worker count follows
// runtime.GOMAXPROCS; all algorithms are deterministic for a fixed input
// regardless of the worker count or steal schedule, and with GOMAXPROCS=1
// every code path runs as plain sequential code. One step the paper runs
// in parallel is sequential here: the dendrogram's vertex distances come
// from one O(n) breadth-first search, not Euler-tour list ranking. At two
// workers a work-efficient list ranking measured faster only on trees of
// more than about 300k–400k arcs (150k–200k points; see the README's
// "Parallel runtime"), and that ranking is the route if a workload passes
// that size.
//
// # Memory layout
//
// The hot paths are laid out for the cache, not the allocator. The k-d
// tree slab-allocates all of its nodes in one arena with int32 child
// indices and a single contiguous backing array for every node's bounding
// box and center, and it physically permutes its own copy of the points
// into kd-order, so leaf scans in k-NN, range, BCCP, and Borůvka queries
// stream over contiguous rows (the caller's buffer is never mutated, and
// all public results are reported in the caller's original point ids).
// The MST drivers keep their per-round state — union-find, component
// labels, candidate edges, dense per-component reduction slots, the
// round's Kruskal batch — in a reusable workspace, and Kruskal filters and
// sorts each batch in place. A steady-state Borůvka or WSPD-Borůvka round
// performs zero heap allocations. GFK rounds and MemoGFK runs allocate
// only for parallel scaffolding and set-up, never per pair or edge: at
// n=512 a GFK round and a whole MemoGFK run on a reused workspace are
// pinned at 16 allocations or fewer. See the README's "Performance notes"
// for measured effects.
//
// # Float32 fast path for high-dimensional data
//
// WithFloat32 (IndexOptions.Float32; daemon uploads: "dtype":"float32")
// opts an Index into a float32 SoA fast path aimed at high-dimensional
// workloads, where the O(dim) leaf scans dominate: the k-d tree carries a
// dimension-blocked float32 copy of the points, and k-NN, core distances,
// range queries, BCCP, and Borůvka all lane-scan it with branch-free
// scalar loops. Each of those traversals is written once for both
// dtypes and every metric: the dtype and the metric are chosen only in the
// k-d tree's query primitives (internal/kdtree/scan.go), and float64
// traversals still descend to the leaves. Exact
// float64 stays the default. The precision contract: all spatial pruning
// uses exact float64 bounds and every cross-candidate comparison widens to
// float64, so results differ from the float64 path only by float32
// rounding of individual point-pair distances — bounded relative error on
// MST weights and merge heights, with label flips possible only for
// points whose assignment is decided at float32 resolution. NewIndex
// rejects coordinates whose magnitude exceeds metric.MaxAbsCoord32(dim),
// so accumulations can never round to ±Inf. Snapshots record the dtype
// and restore the Index in the same mode. At dim 16–128 the fast path
// measures roughly 2.5–10x on k-NN, core distances, and end-to-end
// HDBSCAN* (see the README's float32 section).
//
// # Serving and registry memory accounting
//
// The parclustd daemon (cmd/parclustd, handlers in internal/daemon) hosts
// many named datasets, each backed by one Index, in an LRU registry
// (internal/registry) under a -max-bytes admission budget. Concurrent cold
// queries that need the same unbuilt stage coalesce into a single build
// (the N-1 followers park on the leader's flight and are reported in the
// Coalesced counters of IndexStats), and evicting a dataset never frees it
// out from under an in-flight query: queries hold ref-counted handles, and
// an evicted dataset's memory stays charged against the budget until the
// last handle drains.
//
// The budget is accounted in units of ApproxBytes, a warm-Index sizing
// model rather than a live-allocation count: the retained input rows
// (8·n·dim), the k-d tree (its kd-ordered point copy, ~2n arena nodes with
// their contiguous [lo|hi|ctr] geometry blocks, and the two int32
// permutations), plus a stage-cache allowance of four core-distance sets,
// two MST edge lists, and the dendrogram with its cut structure. The
// estimate is charged once at upload, deliberately on the warm side, so a
// budget negotiated at admission time still holds after sweep traffic has
// populated the stage caches.
//
// One component of ApproxBytes is dynamic: each hierarchy stage memoizes
// flat-cut results in a bounded per-stage cache (repeated ClustersAt radii
// are O(1); see CutBuilds/CutHits in Counters; an ApproxOPTICS hierarchy
// keeps the same cache, counted by no Index), and ApproxBytes includes
// the labels currently retained by those caches. The daemon re-charges a
// dataset's registry accounting after every sweep request, so cut-cache
// growth stays visible to the admission budget between uploads.
//
// # Incremental updates and the stage epoch
//
// Insert and Delete mutate a live Index without rebuilding it: inserted
// rows buffer in an overlay merged into point queries by brute force,
// deleted rows become tombstones the tree traversals skip, and the index
// compacts (rebuilds its canonical base over the survivors, in ascending
// external-id order, through the exact build path a fresh Index uses)
// when the backlog crosses 25% of the live set or a global stage needs
// the full live set. That shared build path is the correctness argument:
// after any mutation sequence, every result — clusterings, MSTs, point
// queries — is byte-identical to a fresh Index over the equivalent
// points.
//
// Every mutation bumps the Index's stage epoch (MutationEpoch) before it
// is applied, then drops exactly the downstream stages — core distances,
// MSTs, dendrograms, and the cut-result caches — while the tree survives
// as a patched base (TreePatches counts these; Compactions counts full
// rebuilds). The epoch is the serving layer's race detector: a daemon
// query captures the epoch at admission and re-checks it before writing
// its response, answering 409 Conflict when a mutation landed mid-query
// instead of serving a mix of pre- and post-mutation state. External ids
// are monotonic and never reused; they are not persisted — WriteSnapshot
// compacts first and a restored Index renumbers survivors 0..m-1 in the
// same dense order, so dense-space answers survive a restart
// byte-for-byte.
//
// # Snapshots: persistence for warm Indexes
//
// WriteSnapshot serializes an Index — its prepared points and every
// memoized stage output (k-d tree arena, core distances per minPts, MSTs,
// dendrograms) — into a versioned, checksummed container; ReadSnapshot
// restores an Index that answers every serialized stage byte-identically
// with zero rebuilds (its Stats build counters stay 0 until a query needs
// something the snapshot did not carry). The container carries a CRC-32C
// per chunk and a content hash over the points: a damaged stage chunk is
// dropped and rebuilt on demand (ReadSnapshotDetails lists the drops),
// while a damaged header or points section fails the whole decode rather
// than serving wrong results. The normative byte-level format
// specification lives in the internal/store package documentation.
//
// The parclustd daemon builds its persistent stage store on snapshots
// (flag -data-dir, which also turns spilling on): uploads persist,
// memory-budget evictions spill the warm stage set (stale-aware — an
// unchanged dataset is written once), queries against non-resident
// datasets lazily reload, and a graceful shutdown persists everything
// resident, so a restarted daemon serves identical responses without
// rebuilding any stage. See the README's "Persistence" section for the
// serving-level lifecycle.
//
// # Quick start
//
//	pts := parclust.GenerateUniform(100000, 2, 42)
//	edges, _ := parclust.EMST(pts)
//	h, _ := parclust.HDBSCAN(pts, 10)
//	clusters := h.ClustersAt(2.5)
//
//	// Build once, serve many queries:
//	idx, _ := parclust.NewIndex(pts, nil)
//	h5, _ := idx.HDBSCAN(5)    // builds the tree, core distances, MST
//	h9, _ := idx.HDBSCAN(9)    // reuses the tree; new core distances + MST
//	c := h9.ClustersAt(2.5)    // near-O(n) cut off the precomputed merge order
//	nn, _ := idx.KNN(17, 10)   // same tree again
package parclust
