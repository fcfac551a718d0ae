package engine

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"parclust/internal/geometry"
	"parclust/internal/hdbscan"
	"parclust/internal/metric"
	"parclust/internal/mst"
)

func randPoints(n, dim int, seed int64) geometry.Points {
	rng := rand.New(rand.NewSource(seed))
	p := geometry.NewPoints(n, dim)
	for i := range p.Data {
		p.Data[i] = rng.Float64() * 100
	}
	return p
}

func TestStageMemoizationCounters(t *testing.T) {
	e := New(randPoints(500, 2, 1), metric.L2{})
	// Three minPts values, each queried twice; the tree must build once,
	// core distances and MSTs once per minPts.
	for _, minPts := range []int{3, 7, 12, 3, 7, 12} {
		edges, cd := testHDB(e, minPts, hdbscan.MemoGFK)
		if len(edges) != 499 || len(cd) != 500 {
			t.Fatalf("minPts=%d: %d edges, %d core distances", minPts, len(edges), len(cd))
		}
	}
	c := e.Counters()
	if c.TreeBuilds != 1 {
		t.Fatalf("TreeBuilds = %d, want 1", c.TreeBuilds)
	}
	if c.CoreDistBuilds != 3 {
		t.Fatalf("CoreDistBuilds = %d, want 3", c.CoreDistBuilds)
	}
	if c.MSTBuilds != 3 {
		t.Fatalf("MSTBuilds = %d, want 3", c.MSTBuilds)
	}
	if c.DendrogramHits != 3 {
		t.Fatalf("DendrogramHits = %d, want 3", c.DendrogramHits)
	}
	// A different algorithm at a known minPts reuses tree and core
	// distances but runs a new MST.
	testHDB(e, 3, hdbscan.GanTao)
	c = e.Counters()
	if c.TreeBuilds != 1 || c.CoreDistBuilds != 3 || c.MSTBuilds != 4 {
		t.Fatalf("after algo change: tree=%d core=%d mst=%d, want 1/3/4",
			c.TreeBuilds, c.CoreDistBuilds, c.MSTBuilds)
	}
	// EMST shares the same tree.
	if edges := testEMST(e, EMSTMemoGFK); len(edges) != 499 {
		t.Fatalf("EMST edges = %d", len(edges))
	}
	if c := e.Counters(); c.TreeBuilds != 1 || c.MSTBuilds != 5 {
		t.Fatalf("after EMST: tree=%d mst=%d, want 1/5", c.TreeBuilds, c.MSTBuilds)
	}
}

func TestHierarchyStageSharedAcrossCalls(t *testing.T) {
	e := New(randPoints(300, 2, 2), metric.L2{})
	a := testHier(e, KindHDBSCAN, uint8(hdbscan.MemoGFK), 5)
	b := testHier(e, KindHDBSCAN, uint8(hdbscan.MemoGFK), 5)
	if a != b {
		t.Fatal("equal queries returned distinct hierarchy stages")
	}
	if a.Cutter() != b.Cutter() {
		t.Fatal("cut structure not shared")
	}
	c := e.Counters()
	if c.DendrogramBuilds != 1 || c.DendrogramHits != 1 {
		t.Fatalf("dendrogram builds=%d hits=%d, want 1/1", c.DendrogramBuilds, c.DendrogramHits)
	}
	// Single-linkage is a distinct stage.
	sl := testHier(e, KindEMST, uint8(EMSTMemoGFK), 1)
	if sl == a || sl.CoreDist != nil {
		t.Fatal("single-linkage stage must be distinct with nil core distances")
	}
}

func TestMSTResultsMatchFreshEngine(t *testing.T) {
	// A warm engine (annotations overwritten by interleaved minPts runs)
	// must produce byte-identical MSTs to fresh ones.
	pts := randPoints(400, 3, 3)
	warm := New(pts, metric.L2{})
	order := []int{9, 2, 9, 5, 2}
	for _, mp := range order {
		testHDB(warm, mp, hdbscan.MemoGFK)
	}
	for _, mp := range []int{2, 5, 9} {
		fresh := New(pts, metric.L2{})
		we, wcd := testHDB(warm, mp, hdbscan.MemoGFK)
		fe, fcd := testHDB(fresh, mp, hdbscan.MemoGFK)
		if len(we) != len(fe) {
			t.Fatalf("minPts=%d: edge count differs", mp)
		}
		for i := range we {
			if we[i] != fe[i] {
				t.Fatalf("minPts=%d: edge %d differs: %v vs %v", mp, i, we[i], fe[i])
			}
		}
		for i := range wcd {
			if wcd[i] != fcd[i] {
				t.Fatalf("minPts=%d: core distance %d differs", mp, i)
			}
		}
	}
}

func TestConcurrentStageComputation(t *testing.T) {
	// Eight goroutines race to compute overlapping stages on a cold engine;
	// every stage must run exactly once per key and all results must agree.
	pts := randPoints(600, 2, 4)
	e := New(pts, metric.L2{})
	want := map[int]float64{}
	for _, mp := range []int{4, 8} {
		fresh := New(pts, metric.L2{})
		edges, _ := testHDB(fresh, mp, hdbscan.MemoGFK)
		want[mp] = mst.TotalWeight(edges)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 6; it++ {
				mp := []int{4, 8}[(g+it)%2]
				edges, _ := testHDB(e, mp, hdbscan.MemoGFK)
				if got := mst.TotalWeight(edges); got != want[mp] {
					t.Errorf("minPts=%d: weight %v, want %v", mp, got, want[mp])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	c := e.Counters()
	if c.TreeBuilds != 1 || c.CoreDistBuilds != 2 || c.MSTBuilds != 2 {
		t.Fatalf("concurrent cold start: tree=%d core=%d mst=%d, want 1/2/2",
			c.TreeBuilds, c.CoreDistBuilds, c.MSTBuilds)
	}
}

func TestEMSTTrivialInputs(t *testing.T) {
	for _, n := range []int{0, 1} {
		e := New(randPoints(n, 2, 5), metric.L2{})
		if edges := testEMST(e, EMSTMemoGFK); edges != nil {
			t.Fatalf("n=%d: EMST returned %d edges", n, len(edges))
		}
		if c := e.Counters(); c.TreeBuilds != 0 {
			t.Fatalf("n=%d: trivial EMST built a tree", n)
		}
	}
}

// stageCounts is one stage family's {builds, hits, coalesced}.
type stageCounts [3]int64

// familyCounts splits c into the tree, core, MST and hierarchy families.
func familyCounts(c Counters) [4]stageCounts {
	return [4]stageCounts{
		{c.TreeBuilds, c.TreeHits, c.TreeCoalesced},
		{c.CoreDistBuilds, c.CoreDistHits, c.CoreDistCoalesced},
		{c.MSTBuilds, c.MSTHits, c.MSTCoalesced},
		{c.DendrogramBuilds, c.DendrogramHits, c.DendrogramCoalesced},
	}
}

// TestFetchCounters pins the counters of the fetch path for every stage
// entry on a fresh engine: a cold request counts one build per stage it
// published and no hit, and the same request warm counts one hit in its
// own family and nothing else. One client never coalesces; the
// singleflight tests cover coalesced waits.
func TestFetchCounters(t *testing.T) {
	ctx := context.Background()
	canon := func(e *Engine) error { _, err := e.CanonTree(ctx); return err }
	hier := func(kind Kind, algo uint8) func(e *Engine) error {
		return func(e *Engine) error { _, err := e.Hierarchy(ctx, kind, algo, 5); return err }
	}
	for _, tc := range []struct {
		name string
		// dirty builds the tree and inserts rows first, so the cold request
		// compacts.
		dirty      bool
		run        func(e *Engine) error
		cold, warm [4]stageCounts // tree, core, mst, hier; changes over the step before
	}{
		{"Tree", false, func(e *Engine) error { _, err := e.Tree(ctx); return err },
			[4]stageCounts{{1, 0, 0}}, [4]stageCounts{{0, 1, 0}}},
		{"CanonTree", false, canon, [4]stageCounts{{1, 0, 0}}, [4]stageCounts{{0, 1, 0}}},
		{"CanonTree/compaction", true, canon, [4]stageCounts{{1, 0, 0}}, [4]stageCounts{{0, 1, 0}}},
		{"CoreDist", false, func(e *Engine) error { _, err := e.CoreDist(ctx, 5); return err },
			[4]stageCounts{{1, 0, 0}, {1, 0, 0}}, [4]stageCounts{{}, {0, 1, 0}}},
		{"EMST", false, func(e *Engine) error { _, _, err := e.EMST(ctx, EMSTMemoGFK); return err },
			[4]stageCounts{{1, 0, 0}, {}, {1, 0, 0}}, [4]stageCounts{{}, {}, {0, 1, 0}}},
		{"Hierarchy/hdbscan", false, hier(KindHDBSCAN, uint8(hdbscan.MemoGFK)),
			[4]stageCounts{{1, 0, 0}, {1, 0, 0}, {1, 0, 0}, {1, 0, 0}}, [4]stageCounts{{}, {}, {}, {0, 1, 0}}},
		{"Hierarchy/emst", false, hier(KindEMST, uint8(EMSTMemoGFK)),
			[4]stageCounts{{1, 0, 0}, {}, {1, 0, 0}, {1, 0, 0}}, [4]stageCounts{{}, {}, {}, {0, 1, 0}}},
		{"CoreDistTree", false, func(e *Engine) error { _, _, err := e.CoreDistTree(ctx, 5); return err },
			[4]stageCounts{{1, 0, 0}, {1, 0, 0}}, [4]stageCounts{{0, 1, 0}, {0, 1, 0}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(randPoints(400, 2, 21), metric.L2{})
			if tc.dirty {
				testTree(e)
				if _, err := e.Insert(randPoints(3, 2, 22)); err != nil || !e.Dirty() {
					t.Fatalf("insert: err %v, dirty %v", err, e.Dirty())
				}
			}
			before := familyCounts(e.Counters())
			for _, step := range []struct {
				name string
				want [4]stageCounts
			}{{"cold", tc.cold}, {"warm", tc.warm}} {
				if err := tc.run(e); err != nil {
					t.Fatalf("%s: %v", step.name, err)
				}
				after := familyCounts(e.Counters())
				var got [4]stageCounts
				for f := range got {
					for i := range got[f] {
						got[f][i] = after[f][i] - before[f][i]
					}
				}
				if got != step.want {
					t.Errorf("%s: tree/core/mst/hier {builds hits coalesced} %v, want %v", step.name, got, step.want)
				}
				before = after
			}
			want := int64(0)
			if tc.dirty {
				want = 1 // the cold request compacted
			}
			if got := e.Counters().Compactions; got != want {
				t.Errorf("compactions %d, want %d", got, want)
			}
		})
	}
}

// TestWarmHitsAllocateNothing pins the warm path of the five stage
// entries: a request answered by its first look allocates nothing.
func TestWarmHitsAllocateNothing(t *testing.T) {
	ctx := context.Background()
	e := New(randPoints(400, 2, 23), metric.L2{})
	hdb := uint8(hdbscan.MemoGFK)
	warm := func() {
		if _, err := e.Tree(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := e.CanonTree(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := e.CoreDist(ctx, 5); err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.EMST(ctx, EMSTMemoGFK); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Hierarchy(ctx, KindHDBSCAN, hdb, 5); err != nil {
			t.Fatal(err)
		}
	}
	warm() // builds every stage
	if allocs := testing.AllocsPerRun(100, warm); allocs != 0 {
		t.Fatalf("warm hits allocated %v times per run, want 0", allocs)
	}
}
