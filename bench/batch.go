package main

// The batch workloads: the library used in-process, one cold pipeline after
// another. A repetition builds a fresh Index, runs HDBSCAN* and its first
// flat cut, more first-time cuts, warm k-NN queries, then EMST on another
// fresh Index. Traced repetitions run the same pipeline a second time
// through direct layer calls, so the trace splits the Index path by layer.
//
// The work of these pipelines is heavy-tailed across inputs of one
// distribution: on the 16D embeddings, per-input HDBSCAN* time varies by an
// interquartile range of 25-65% of its median and the peak number of
// resident pairs by 50-250%. A run therefore reports medians over many
// inputs. batch-geolife3d, whose inputs vary less, clusters a fresh draw
// from the seed's stream in every repetition; batch-embed16-f32 cycles
// through a fixed corpus of draws from a seed-chosen starting point, so
// that every run, whatever its seed, measures the same inputs, and reports
// each metric as the mean over the draws of the draw's own statistic.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"parclust"
)

const (
	minPts = 10 // HDBSCAN* density parameter of every workload
	knnK   = 10 // neighbours per k-NN query
	cuts   = 20 // flat cuts per batch repetition; the first belongs to cluster_ms
)

// batchConfig sizes a batch workload.
type batchConfig struct {
	n       int
	f32     bool
	points  func(n int, seed int64) parclust.Points
	queries int // warm k-NN queries per repetition
	// corpus, when positive, is the number of fixed point sets the
	// repetitions cycle through; otherwise each repetition draws afresh.
	corpus int
}

// input returns the input of repetition rep of a run with the given seed.
// The queries always come from the seed.
func (cfg batchConfig) input(seed int64, rep int) *pipelineInput {
	s := seed*1_000_003 + int64(rep)
	draw, group := s, ""
	if cfg.corpus > 0 {
		draw = (seed + int64(rep)) % int64(cfg.corpus)
		group = fmt.Sprintf("/%d", draw)
	}
	pts := cfg.points(cfg.n, draw)
	return &pipelineInput{pts: pts, f32: cfg.f32, group: group, queries: queryIDs(pts.N, cfg.queries, s)}
}

// pipelineInput is what one repetition runs on.
type pipelineInput struct {
	pts     parclust.Points
	f32     bool
	group   string    // suffix of the series the repetition records into: "/<input>" in a corpus
	eps     []float64 // cut radii, set from the repetition's MST
	queries []int32
}

func (in *pipelineInput) opts() *parclust.IndexOptions {
	if in.f32 {
		return parclust.WithFloat32()
	}
	return nil
}

// repResult is what the checks look at after a repetition.
type repResult struct {
	hdbscan, emst []parclust.Edge
	fpH, fpE      uint64
}

func runBatch(e *env, cfg batchConfig) (*outcome, error) {
	out := newOutcome()
	// A repetition's set-up is generating its input.
	setup := func(rep int) *pipelineInput {
		st, start := markSteal(), time.Now()
		in := cfg.input(e.seed, rep)
		out.sample("setup"+in.group, lessSteal(time.Since(start), st).Seconds())
		return in
	}
	firstIn := setup(0)
	var first, last repResult
	reps := 0
	err := window(e, func() error {
		deadline := time.Now().Add(e.seconds)
		for reps == 0 || time.Now().Before(deadline) {
			in := firstIn
			if reps > 0 {
				in = setup(reps)
			}
			reps++
			res, ok := runRep(e, out, in, int64(reps), true)
			if !ok {
				continue
			}
			if first.hdbscan == nil {
				first = res
			}
			last = res
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(e.log, "  %d repetitions of n=%d\n", reps, firstIn.pts.N)
	if first.hdbscan == nil {
		return nil, errors.New("no repetition completed")
	}
	c := &out.checks
	n := firstIn.pts.N
	c.spanningTree("first HDBSCAN* MST", n, first.hdbscan)
	c.spanningTree("first EMST", n, first.emst)
	c.spanningTree("last HDBSCAN* MST", n, last.hdbscan)
	c.spanningTree("last EMST", n, last.emst)
	checkFirstDraw(c, firstIn, first)
	setEndToEnd(out)
	if e.trace != nil {
		out.set("bench.late_sends", 0, reps, "closed loop")
		if err := probeDaemon(e, out, firstIn.pts, cfg.f32, firstIn.eps[cuts/2], nil); err != nil {
			return nil, err
		}
		setLayerMetrics(e, out, reps)
	}
	return out, nil
}

// checkFirstDraw runs the untimed post-window checks on the first
// repetition's input: the pipeline is deterministic (a rerun gives
// bit-identical MSTs), and its MSTs agree with independent computations —
// other algorithms (EMST-Boruvka, HDBSCAN*-GanTao) for float64 inputs, a
// float64 run for float32 ones.
func checkFirstDraw(c *checker, in *pipelineInput, first repResult) {
	ix, err := parclust.NewIndex(in.pts, in.opts())
	if err != nil {
		c.failf("rerun index: %v", err)
		return
	}
	if h, err := ix.HDBSCAN(minPts); err != nil {
		c.failf("rerun HDBSCAN*: %v", err)
	} else if fingerprint(h.MST) != first.fpH {
		c.failf("HDBSCAN* MST of the first input differs on a rerun")
	}
	if rerun, err := parclust.NewIndex(in.pts, in.opts()); err != nil {
		c.failf("rerun index: %v", err)
	} else if edges, err := rerun.EMST(); err != nil {
		c.failf("rerun EMST: %v", err)
	} else if fingerprint(edges) != first.fpE {
		c.failf("EMST of the first input differs on a rerun")
	}

	ref, err := parclust.NewIndex(in.pts, nil)
	if err != nil {
		c.failf("reference index: %v", err)
		return
	}
	if !in.f32 {
		if bor, err := ref.EMSTWithAlgorithm(parclust.EMSTBoruvka); err != nil {
			c.failf("EMST-Boruvka: %v", err)
		} else {
			c.sameHeights("EMST merge heights vs EMST-Boruvka", bor, first.emst)
		}
		if gt, err := ref.HDBSCANWithAlgorithm(minPts, parclust.HDBSCANGanTao); err != nil {
			c.failf("HDBSCAN*-GanTao: %v", err)
		} else {
			c.sameHeights("HDBSCAN* merge heights vs HDBSCAN*-GanTao", gt.MST, first.hdbscan)
		}
	}
	if in.f32 {
		if h, err := ref.HDBSCAN(minPts); err != nil {
			c.failf("float64 HDBSCAN*: %v", err)
		} else {
			c.relErr("float32 HDBSCAN* MST weight vs float64", h.TotalWeight(), totalWeight(first.hdbscan), 1e-4)
		}
		if edges, err := ref.EMST(); err != nil {
			c.failf("float64 EMST: %v", err)
		} else {
			c.relErr("float32 EMST weight vs float64", totalWeight(edges), totalWeight(first.emst), 1e-4)
		}
	}
}

// heapPeak samples the bytes held by heap objects every 5ms until
// the returned stop function is called, which returns the largest sample
// in MiB. runtime/metrics reads do not stop the world.
func heapPeak() (stop func() float64) {
	done := make(chan struct{})
	peak := make(chan uint64, 1)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var p uint64
		for {
			metrics.Read(s)
			p = max(p, s[0].Value.Uint64())
			select {
			case <-done:
				peak <- p
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		return float64(<-peak) / (1 << 20)
	}
}

// runRep runs one repetition through the Index, timing each call into the
// e2e series when record is set. Under a tracer the repetition is a root
// span, and directRep then repeats the pipeline through the layers; the
// benchmark's own steps inside the root are bench.* spans, so that the
// root's uncovered time is time nothing accounts for.
func runRep(e *env, out *outcome, in *pipelineInput, req int64, record bool) (repResult, bool) {
	tr := e.trace
	sample := func(series string, v float64) {
		if record {
			out.sample(series+in.group, v)
		}
	}
	op := func(err error) {
		if record {
			out.op(err)
		} else if err != nil {
			out.checks.failf("layer repetition: %v", err)
		}
	}

	runtime.GC() // every cold build starts from the same collected heap
	stopHeap := heapPeak()
	root := tr.newID()
	rootStart := time.Now()
	cpu0, st := selfCPU(), markSteal()
	var (
		ix  *parclust.Index
		h   *parclust.Hierarchy
		err error
	)
	build := tr.time("engine.hdbscan", root, req, func() {
		ix, err = parclust.NewIndex(in.pts, in.opts())
		if err == nil {
			h, err = ix.HDBSCAN(minPts)
		}
	})
	cpu, buildLess := selfCPU()-cpu0, lessSteal(build, st)
	op(err)
	if err != nil {
		stopHeap()
		return repResult{}, false
	}
	if in.eps == nil {
		tr.time("bench.eps", root, req, func() { in.eps = epsLadder(h.MST, cuts) })
	}
	st = markSteal()
	firstCut := tr.time("engine.cut", root, req, func() { h.ClustersAt(in.eps[0]) })
	sample("cluster", ms(buildLess+lessSteal(firstCut, st)))
	for _, eps := range in.eps[1:] {
		d := tr.time("engine.cut", root, req, func() { h.ClustersAt(eps) })
		op(nil)
		sample("cut", ms(d))
	}
	for _, q := range in.queries {
		var qerr error
		d := tr.time("engine.knn", root, req, func() { _, qerr = ix.KNN(q, knnK) })
		op(qerr)
		sample("knn", ms(d))
		if tr != nil {
			out.sample("engine.knn", ms(d))
		}
	}

	tr.time("bench.gc", root, req, runtime.GC)
	var (
		ix2   *parclust.Index
		edges []parclust.Edge
	)
	st = markSteal()
	emst := tr.time("engine.emst", root, req, func() {
		ix2, err = parclust.NewIndex(in.pts, in.opts())
		if err == nil {
			edges, err = ix2.EMST()
		}
	})
	emstLess := lessSteal(emst, st)
	peak := stopHeap()
	op(err)
	if err != nil {
		return repResult{}, false
	}
	sample("emst", ms(emstLess))
	sample("mem", peak)

	if tr != nil {
		firstTraced := len(out.samples["engine.self"]) == 0
		direct := directRep(tr, out, in, root, req, firstTraced)
		tr.add(root, 0, req, "bench.rep", rootStart, time.Now())
		out.sample("engine.self", (build + firstCut + emst - direct).Seconds())
		out.sample("parallel.cpu_util", cpu.Seconds()/(build.Seconds()*float64(runtime.GOMAXPROCS(0))))
		if firstTraced && record {
			c1, c2 := ix.Stats(), ix2.Stats()
			out.set("engine.tree_builds", float64(c1.TreeBuilds+c2.TreeBuilds), 1, "per repetition")
			out.set("engine.mst_builds", float64(c1.MSTBuilds+c2.MSTBuilds), 1, "per repetition")
			out.set("engine.compactions", float64(c1.Compactions+c2.Compactions), 1, "per repetition")
			out.set("engine.tree_patches", float64(c1.TreePatches+c2.TreePatches), 1, "per repetition")
			out.set("engine.cut_hit_ratio", hitRatio(c1.CutHits, c1.CutBuilds), 1, "per repetition")
		}
	}
	return repResult{hdbscan: h.MST, emst: edges, fpH: fingerprint(h.MST), fpE: fingerprint(edges)}, true
}

// directRep runs a repetition's pipeline through direct layer calls, each a
// child span of root, and returns the time of the steps the Index path's
// timed calls also make: both tree builds, core distances, both MSTs, the
// dendrogram, the cutter and the first cut. counters records the exact
// work counters (they repeat across repetitions).
func directRep(tr *tracer, out *outcome, in *pipelineInput, root, req int64, counters bool) time.Duration {
	n := in.pts.N
	var total time.Duration
	step := func(name string, fn func()) time.Duration {
		d := tr.time(name, root, req, fn)
		total += d
		return d
	}
	var (
		t   *directTree
		err error
	)
	out.sample("kdtree.build", step("kdtree.build", func() { t, err = buildTree(in.pts, in.f32) }).Seconds())
	if err != nil {
		out.checks.failf("direct tree build: %v", err)
		return total
	}
	out.sample("kdtree.coredist", step("kdtree.coredist", func() { t.coreDistances(minPts) }).Seconds())
	if counters {
		var geo, mutual int
		tr.time("wspd.count", root, req, func() { geo, mutual = t.wspdPairs() })
		out.set("wspd.pairs_geometric", float64(geo), 1, "count")
		out.set("wspd.pairs_mutual", float64(mutual), 1, "count")
	}
	var (
		edges []parclust.Edge
		c     mstCounts
	)
	out.sample("mst.hdbscan", step("mst.hdbscan", func() { edges, c = t.hdbscanMST() }).Seconds())
	if counters {
		setCounts(out, "mst.hdbscan", c)
	}
	out.sample("dendrogram.build", step("dendrogram.build", func() { buildDendrogram(n, edges) }).Seconds())
	var cut cutter
	out.sample("dendrogram.cutter", step("dendrogram.cutter", func() { cut = newCutter(n, edges, t.cd) }).Seconds())
	for i, eps := range in.eps {
		d := tr.time("dendrogram.cut", root, req, func() { cut.cut(eps) })
		if i == 0 {
			total += d
		}
		out.sample("dendrogram.cut", ms(d))
	}
	for _, q := range in.queries {
		d := tr.time("kdtree.knn", root, req, func() { t.knn(q, knnK) })
		out.sample("kdtree.knn", float64(d)/float64(time.Microsecond))
	}

	var et *directTree
	out.sample("kdtree.build", step("kdtree.build", func() { et, err = buildTree(in.pts, in.f32) }).Seconds())
	if err != nil {
		out.checks.failf("direct tree build: %v", err)
		return total
	}
	out.sample("mst.emst", step("mst.emst", func() { _, c = et.emst() }).Seconds())
	if counters {
		setCounts(out, "mst.emst", c)
	}
	return total
}

func setCounts(out *outcome, prefix string, c mstCounts) {
	out.set(prefix+".bccp_calls", float64(c.BCCPCalls), 1, "count")
	out.set(prefix+".pairs_materialized", float64(c.PairsMaterialized), 1, "count")
	out.set(prefix+".peak_pairs_resident", float64(c.PeakPairsResident), 1, "count")
	out.set(prefix+".rounds", float64(c.Rounds), 1, "count")
}

// setLayerMetrics turns the per-layer series of a traced run into its
// per-layer metrics. requests is the number of timed requests or
// repetitions in the window.
func setLayerMetrics(e *env, out *outcome, requests int) {
	for _, s := range []struct{ name, series string }{
		{"kdtree.build_s", "kdtree.build"},
		{"kdtree.coredist_s", "kdtree.coredist"},
		{"kdtree.knn_us", "kdtree.knn"},
		{"mst.hdbscan.s", "mst.hdbscan"},
		{"mst.emst.s", "mst.emst"},
		{"dendrogram.build_s", "dendrogram.build"},
		{"dendrogram.cutter_s", "dendrogram.cutter"},
		{"dendrogram.cut_ms", "dendrogram.cut"},
		{"engine.self_s", "engine.self"},
		{"parallel.cpu_util", "parallel.cpu_util"},
	} {
		out.setMedian(s.name, s.series)
	}
	ns32, ns64 := distanceKernelNs(16, 1<<20)
	out.set("metric.dist32_ns", ns32, 5, "median")
	out.set("metric.dist64_ns", ns64, 5, "median")
	out.set("daemon.overhead_ms", out.values["daemon.knn_p50_ms"].Value-median(out.samples["engine.knn"]), 1, "p50 difference")
	out.set("bench.requests", float64(requests), 1, "count")

	spans := e.trace.snapshot()
	sum := summarize(spans)
	out.set("bench.root_coverage", sum.MinCoverage, sum.Roots, "min")
	if sum.Roots > 0 && sum.MinCoverage < 0.9 {
		out.checks.failf("child spans cover only %.1f%% of a repetition's root span (want >= 90%%)", 100*sum.MinCoverage)
	}
	// Tracing costs one span record per span; relate that to the traced time.
	first, last := spans[0].Start, spans[0].End
	for _, s := range spans {
		first, last = min(first, s.Start), max(last, s.End)
	}
	overhead := float64(spanCost(100000)) * float64(len(spans)) / float64(last-first)
	out.set("bench.trace_overhead_pct", 100*overhead, len(spans), "estimate")
	e.summary = sum
}

// sortedWeights returns the MST edge weights in increasing order.
func sortedWeights(edges []parclust.Edge) []float64 {
	w := make([]float64, len(edges))
	for i, e := range edges {
		w[i] = e.W
	}
	slices.Sort(w)
	return w
}

// epsLadder returns n radii spread over the quantiles of the MST edge
// weights, in increasing order.
func epsLadder(edges []parclust.Edge, n int) []float64 {
	w := sortedWeights(edges)
	eps := make([]float64, n)
	for i := range eps {
		eps[i] = w[(2*i+1)*len(w)/(2*n)]
	}
	return eps
}

// queryIDs draws k query point ids in [0, n) from the seed.
func queryIDs(n, k int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed + 7919))
	ids := make([]int32, k)
	for i := range ids {
		ids[i] = int32(rng.Intn(n))
	}
	return ids
}

func totalWeight(edges []parclust.Edge) float64 {
	s := 0.0
	for _, e := range edges {
		s += e.W
	}
	return s
}

func hitRatio(hits, builds int64) float64 {
	if hits+builds == 0 {
		return 0
	}
	return float64(hits) / float64(hits+builds)
}
