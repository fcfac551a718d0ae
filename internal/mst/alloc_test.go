package mst

import (
	"testing"

	"parclust/internal/kdtree"
	"parclust/internal/metric"
	"parclust/internal/wspd"
)

// Allocation regression tests for the cache-conscious layout work: the
// Borůvka-style algorithms keep all per-round state in a Workspace and
// pre-build their parallel round bodies, so a steady-state round must not
// touch the heap at all. testing.AllocsPerRun runs with GOMAXPROCS=1, which
// drives the parallel primitives through their inline sequential paths —
// exactly the configuration where stray per-round allocations would
// otherwise hide in scheduler noise.

func TestBoruvkaRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	pts := randPoints(512, 3, 42)
	tr := kdtree.BuildMetric(pts, 1, metric.L2{})
	ws := NewWorkspace()
	r := newBoruvkaRun(Config{Tree: tr}, ws)
	if !r.round() { // warm up: first round sizes nothing (grow already did)
		t.Fatal("Borůvka finished in zero rounds")
	}
	allocs := testing.AllocsPerRun(10, func() { r.round() })
	if allocs != 0 {
		t.Fatalf("steady-state Borůvka round allocated %v times, want 0", allocs)
	}
}

func TestWSPDBoruvkaRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	pts := randPoints(512, 3, 43)
	tr := kdtree.BuildMetric(pts, 1, metric.L2{})
	cfg := Config{Tree: tr, Metric: kdtree.NewEuclidean(tr), Sep: wspd.Geometric{S: 2}}
	ws := NewWorkspace()
	r := newWSPDBoruvkaRun(cfg, ws, decompose(cfg, nil))
	if !r.round() {
		t.Fatal("WSPD-Borůvka finished in zero rounds")
	}
	allocs := testing.AllocsPerRun(10, func() { r.round() })
	if allocs != 0 {
		t.Fatalf("steady-state WSPD-Borůvka round allocated %v times, want 0", allocs)
	}
}

// TestGFKRoundAllocs pins GFK's per-round allocations to a small constant:
// the round itself runs over workspace buffers and Kruskal works in place,
// but the rho reduction scaffolding (parallel.ReduceMin's closure state)
// allocates per call, and a batch longer than any before grows ws.batch.
// The bound is deliberately loose enough to be schedule-independent
// and tight enough to catch a regression back to per-pair or per-point
// allocation.
func TestGFKRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	pts := randPoints(512, 3, 44)
	tr := kdtree.BuildMetric(pts, 1, metric.L2{})
	cfg := Config{Tree: tr, Metric: kdtree.NewEuclidean(tr), Sep: wspd.Geometric{S: 2}}
	ws := NewWorkspace()
	ws.pairs = decompose(cfg, ws.pairs)
	ws.grow(pts.N)
	ws.growPairs(len(ws.pairs))
	r := newGFKRun(cfg, ws, ws.pairs)
	beta := 2
	r.round(beta) // warm up: grows ws.batch
	const maxAllocs = 16
	allocs := testing.AllocsPerRun(5, func() {
		beta *= 2
		r.round(beta)
	})
	if allocs > maxAllocs {
		t.Fatalf("steady-state GFK round allocated %v times, want <= %d", allocs, maxAllocs)
	}
}

// TestWorkspaceReuseAcrossRuns checks that a shared Config.WS is safe: a
// second run must not corrupt the first run's returned edges.
func TestWorkspaceReuseAcrossRuns(t *testing.T) {
	ws := NewWorkspace()
	pts1 := randPoints(200, 2, 7)
	pts2 := randPoints(300, 2, 8)
	cfg1 := euclidConfig(pts1)
	cfg1.WS = ws
	out1 := MemoGFK(cfg1)
	snapshot := append([]Edge(nil), out1...)
	cfg2 := euclidConfig(pts2)
	cfg2.WS = ws
	out2 := MemoGFK(cfg2)
	for i := range out1 {
		if out1[i] != snapshot[i] {
			t.Fatal("second run with a shared workspace mutated the first result")
		}
	}
	checkSpanningTree(t, pts2.N, out2)
	checkSpanningTree(t, pts1.N, out1)
}

// TestMemoGFKAllocs pins a whole MemoGFK run on a reused Workspace to a
// small constant number of allocations. The retrieval traversals append
// into the workspace's batch buffer, so below spawnSize (no forks) the cost
// of a run no longer grows with its rounds, pairs or emitted edges; what
// remains is per-run set-up and the copy of the returned edges.
func TestMemoGFKAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	pts := randPoints(512, 3, 45)
	euclid := kdtree.BuildMetric(pts, 1, metric.L2{})
	mutual := kdtree.BuildMetric(pts, 1, metric.L2{})
	mutual.AnnotateCoreDists(mutual.CoreDistances(10))
	f32 := kdtree.BuildMetric(randPoints(512, 16, 46), 1, metric.L2{})
	if err := f32.EnableFloat32(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"euclidean", Config{Tree: euclid, Metric: kdtree.NewEuclidean(euclid), Sep: wspd.Geometric{S: 2}}},
		{"mutual", Config{Tree: mutual, Metric: kdtree.NewMutualReachability(mutual), Sep: wspd.MutualUnreachable{}}},
		{"euclidean-f32", Config{Tree: f32, Metric: kdtree.NewEuclidean(f32), Sep: wspd.Geometric{S: 2}}},
		{"l1-generic", metricConfig(pts, metric.L1{})},
	} {
		tc.cfg.WS = NewWorkspace() // AllocsPerRun's warm-up run sizes it
		const maxAllocs = 16
		allocs := testing.AllocsPerRun(5, func() { MemoGFK(tc.cfg) })
		if allocs > maxAllocs {
			t.Errorf("%s: MemoGFK on a reused Workspace allocated %v times, want <= %d", tc.name, allocs, maxAllocs)
		}
	}
}
