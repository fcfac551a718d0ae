package engine

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"parclust/internal/geometry"
	"parclust/internal/kdtree"
	"parclust/internal/metric"
)

// In-package tests for the dynamic layer: the engine-level mutation oracle
// lives in the root package (mutation_oracle_test.go) and exercises the
// public Index; these pin the engine internals — id bookkeeping, compaction
// thresholds, counter accounting, and the live query entry points — against
// fresh engines over the equivalent point set.

// freshOver builds a clean engine over the given rows (row-major, dim
// wide), the same way compaction materializes its canonical base.
func freshOver(rows [][]float64, dim int) *Engine {
	p := geometry.NewPoints(len(rows), dim)
	for i, r := range rows {
		copy(p.Data[i*dim:(i+1)*dim], r)
	}
	return New(p, metric.L2{})
}

// dynModel mirrors the engine's live set: rows keyed by external id, in
// ascending id order.
type dynModel struct {
	ids  []int64
	rows [][]float64
}

func (m *dynModel) insert(ids []int64, pts geometry.Points) {
	for i, id := range ids {
		m.ids = append(m.ids, id)
		row := append([]float64(nil), pts.Data[i*pts.Dim:(i+1)*pts.Dim]...)
		m.rows = append(m.rows, row)
	}
}

func (m *dynModel) remove(ids []int64) {
	drop := make(map[int64]bool, len(ids))
	for _, id := range ids {
		drop[id] = true
	}
	keptIDs := m.ids[:0]
	keptRows := m.rows[:0]
	for i, id := range m.ids {
		if !drop[id] {
			keptIDs = append(keptIDs, id)
			keptRows = append(keptRows, m.rows[i])
		}
	}
	m.ids, m.rows = keptIDs, keptRows
}

func TestDynamicMutationsMatchFresh(t *testing.T) {
	ctx := context.Background()
	dim := 2
	base := randPoints(120, dim, 101)
	e := New(base, metric.L2{})
	testTree(e) // warm the base tree so mutations patch, not rebuild

	model := &dynModel{}
	for i := 0; i < base.N; i++ {
		model.ids = append(model.ids, int64(i))
		model.rows = append(model.rows, base.At(i))
	}

	// Small batches stay under the 25% compaction threshold.
	ins1 := randPoints(10, dim, 102)
	ids1, err := e.Insert(ins1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids1) != 10 || ids1[0] != 120 || ids1[9] != 129 {
		t.Fatalf("first insert ids = %v, want 120..129", ids1)
	}
	model.insert(ids1, ins1)

	// Delete a mix of base rows and one overlay row.
	del := []int64{3, 77, 119, ids1[4]}
	if err := e.Delete(del); err != nil {
		t.Fatal(err)
	}
	model.remove(del)

	if !e.Dirty() {
		t.Fatal("engine should be dirty after sub-threshold mutations")
	}
	info := e.DynInfo()
	if info.Live != len(model.ids) || info.Overlay != 9 || info.Tombstones != 3 || !info.Dirty {
		t.Fatalf("DynInfo = %+v, want live=%d overlay=9 tombstones=3 dirty", info, len(model.ids))
	}
	if e.LiveN() != len(model.ids) {
		t.Fatalf("LiveN = %d, want %d", e.LiveN(), len(model.ids))
	}
	if e.Dim() != dim {
		t.Fatalf("Dim = %d, want %d", e.Dim(), dim)
	}
	if got := e.ExternalIDs(); !reflect.DeepEqual(got, model.ids) {
		t.Fatalf("ExternalIDs = %v, want %v", got, model.ids)
	}
	if e.MutationEpoch() != 2 {
		t.Fatalf("MutationEpoch = %d, want 2", e.MutationEpoch())
	}

	// Point queries on the dirty engine vs a fresh engine over the live set.
	fresh := freshOver(model.rows, dim)
	for _, q := range []int{0, 17, len(model.ids) - 1} {
		var ws, wsF kdtree.KNNWorkspace
		got, err := e.KNNLive(ctx, q, 6, &ws)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.KNNLive(ctx, q, 6, &wsF)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("KNNLive(%d) = %v, want %v", q, got, want)
		}
		gr, err := e.RangeLive(ctx, q, 20)
		if err != nil {
			t.Fatal(err)
		}
		wr, err := fresh.RangeLive(ctx, q, 20)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(gr, func(a, b int) bool { return gr[a] < gr[b] })
		sort.Slice(wr, func(a, b int) bool { return wr[a] < wr[b] })
		if !reflect.DeepEqual(gr, wr) {
			t.Fatalf("RangeLive(%d) = %v, want %v", q, gr, wr)
		}
		gc, err := e.RangeCountLive(ctx, q, 20)
		if err != nil {
			t.Fatal(err)
		}
		if gc != len(wr) {
			t.Fatalf("RangeCountLive(%d) = %d, want %d", q, gc, len(wr))
		}
	}

	// Global stages compact first and agree with the fresh build exactly.
	cd, err := e.CoreDist(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	cdF, err := fresh.CoreDist(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cd, cdF) {
		t.Fatal("core distances differ from fresh build after compaction")
	}
	if e.Dirty() {
		t.Fatal("engine still dirty after a global stage compacted it")
	}
	c := e.Counters()
	if c.TreePatches != 2 || c.Compactions != 1 || c.MutationEpoch != 2 {
		t.Fatalf("counters = patches=%d compactions=%d epoch=%d, want 2/1/2",
			c.TreePatches, c.Compactions, c.MutationEpoch)
	}
	// After compaction dense ids renumber but external ids survive.
	if got := e.ExternalIDs(); !reflect.DeepEqual(got, model.ids) {
		t.Fatalf("post-compaction ExternalIDs = %v, want %v", got, model.ids)
	}

	// Deleting by external id through the non-identity baseExt map (binary
	// search path), then inserting past the threshold forces a second
	// compaction inside Insert itself.
	if err := e.Delete([]int64{ids1[0]}); err != nil {
		t.Fatal(err)
	}
	model.remove([]int64{ids1[0]})
	big := randPoints(80, dim, 103) // > 25% of ~126 live
	ids2, err := e.Insert(big)
	if err != nil {
		t.Fatal(err)
	}
	model.insert(ids2, big)
	if e.Dirty() {
		t.Fatal("engine should have compacted eagerly past the backlog threshold")
	}
	if c := e.Counters(); c.Compactions != 2 {
		t.Fatalf("compactions = %d, want 2", c.Compactions)
	}
	fresh2 := freshOver(model.rows, dim)
	var ws, wsF kdtree.KNNWorkspace
	got, err := e.KNNLive(ctx, 3, 8, &ws)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh2.KNNLive(ctx, 3, 8, &wsF)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-compaction KNNLive = %v, want %v", got, want)
	}
}

func TestDynamicValidation(t *testing.T) {
	e := New(randPoints(40, 2, 7), metric.L2{})

	if ids, err := e.Insert(geometry.Points{}); err != nil || ids != nil {
		t.Fatalf("empty insert = (%v, %v), want (nil, nil)", ids, err)
	}
	if err := e.Delete(nil); err != nil {
		t.Fatalf("empty delete = %v, want nil", err)
	}
	if _, err := e.Insert(randPoints(3, 5, 8)); err == nil {
		t.Fatal("dimension-mismatched insert accepted")
	}
	for _, ids := range [][]int64{{40}, {-1}, {5, 5}, {39, 1000}} {
		if err := e.Delete(ids); !errors.Is(err, ErrUnknownID) {
			t.Fatalf("Delete(%v) = %v, want ErrUnknownID", ids, err)
		}
	}
	// All-or-nothing: the failed batches above must not have tombstoned 39.
	if err := e.Delete([]int64{39}); err != nil {
		t.Fatalf("deleting id 39 after failed batches: %v", err)
	}
	if err := e.Delete([]int64{39}); !errors.Is(err, ErrUnknownID) {
		t.Fatal("double delete of id 39 accepted")
	}
	if e.LiveN() != 39 {
		t.Fatalf("LiveN = %d, want 39", e.LiveN())
	}
}

func TestDynamicFloat32CompactsEagerly(t *testing.T) {
	ctx := context.Background()
	pts := randPoints(60, 3, 21)
	e := New(pts, metric.L2{})
	if err := e.EnableFloat32(); err != nil {
		t.Fatal(err)
	}
	testTree(e)
	ins := randPoints(4, 3, 22)
	if _, err := e.Insert(ins); err != nil {
		t.Fatal(err)
	}
	if e.Dirty() {
		t.Fatal("float32 engine must compact on every mutation")
	}
	if c := e.Counters(); c.Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", c.Compactions)
	}
	model := make([][]float64, 0, 64)
	for i := 0; i < pts.N; i++ {
		model = append(model, pts.At(i))
	}
	for i := 0; i < ins.N; i++ {
		model = append(model, ins.At(i))
	}
	fresh := freshOver(model, 3)
	if err := fresh.EnableFloat32(); err != nil {
		t.Fatal(err)
	}
	var ws, wsF kdtree.KNNWorkspace
	got, err := e.KNNLive(ctx, 0, 5, &ws)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.KNNLive(ctx, 0, 5, &wsF)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("f32 KNNLive = %v, want %v", got, want)
	}
}

func TestCompactAndCanonTree(t *testing.T) {
	ctx := context.Background()
	e := New(randPoints(50, 2, 33), metric.L2{})
	if err := e.Compact(ctx); err != nil {
		t.Fatalf("Compact on a clean engine: %v", err)
	}
	if _, err := e.Insert(randPoints(2, 2, 34)); err != nil {
		t.Fatal(err)
	}
	tr, err := e.CanonTree(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Pts.N != 52 {
		t.Fatalf("canonical tree over %d points, want 52", tr.Pts.N)
	}
	if e.Dirty() {
		t.Fatal("CanonTree left the engine dirty")
	}
	if err := e.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if c := e.Counters(); c.Compactions != 1 {
		t.Fatalf("compactions = %d, want 1 (second Compact was a no-op)", c.Compactions)
	}
}

// TestMutationDropsStagesAndCuts pins the invalidation contract at the
// engine level: a mutation drops core distances, MSTs, hierarchies, and
// the hierarchy cut caches, but keeps the tree as a patched base.
func TestMutationDropsStagesAndCuts(t *testing.T) {
	e := New(randPoints(150, 2, 55), metric.L2{})
	st := testHier(e, KindHDBSCAN, 0, 5)
	st.CutAt(1.0)
	c0 := e.Counters()
	if c0.TreeBuilds != 1 || c0.CutBuilds != 1 {
		t.Fatalf("warm counters = %+v", c0)
	}
	if _, err := e.Insert(randPoints(1, 2, 56)); err != nil {
		t.Fatal(err)
	}
	c1 := e.Counters()
	if c1.TreeBuilds != 1 {
		t.Fatalf("tree rebuilt on a sub-threshold insert (builds=%d)", c1.TreeBuilds)
	}
	if c1.TreePatches != 1 {
		t.Fatalf("tree patches = %d, want 1", c1.TreePatches)
	}
	// Re-deriving the hierarchy compacts and rebuilds downstream stages;
	// the same eps must re-cut (a cache hit here would be a stale cut
	// served against the mutated point set).
	st2 := testHier(e, KindHDBSCAN, 0, 5)
	if st2 == st {
		t.Fatal("stale hierarchy stage survived the mutation")
	}
	st2.CutAt(1.0)
	c2 := e.Counters()
	if c2.CoreDistBuilds != 2 || c2.MSTBuilds != 2 || c2.DendrogramBuilds != 2 {
		t.Fatalf("rebuild counters = %+v, want all stage builds == 2", c2)
	}
	if c2.CutBuilds != 2 || c2.CutHits != 0 {
		t.Fatalf("cut counters = builds=%d hits=%d, want 2/0 (no stale hits)",
			c2.CutBuilds, c2.CutHits)
	}
}

func TestSnapshotViewCoherence(t *testing.T) {
	e := New(randPoints(80, 2, 66), metric.L2{})
	testHier(e, KindHDBSCAN, 0, 4)
	pts, stages := e.SnapshotView()
	if pts.N != 80 || stages.Tree == nil || len(stages.Cores) != 1 {
		t.Fatalf("clean view: n=%d tree=%v cores=%d", pts.N, stages.Tree != nil, len(stages.Cores))
	}
	if _, err := e.Insert(randPoints(1, 2, 67)); err != nil {
		t.Fatal(err)
	}
	// After a mutation the view must not pair the old stage outputs with
	// the patched point set: stages were dropped with the mutation.
	_, stages = e.SnapshotView()
	if len(stages.Cores) != 0 || len(stages.MSTs) != 0 || len(stages.Hiers) != 0 {
		t.Fatalf("mutated view still carries stages: %d cores, %d msts, %d hiers",
			len(stages.Cores), len(stages.MSTs), len(stages.Hiers))
	}
}

// TestDynamicShrinkGrow drains the engine to a single point and grows it
// back, crossing the empty-overlay and all-tombstone edge cases.
func TestDynamicShrinkGrow(t *testing.T) {
	ctx := context.Background()
	e := New(randPoints(12, 2, 77), metric.L2{})
	rng := rand.New(rand.NewSource(78))
	live := make([]int64, 12)
	for i := range live {
		live[i] = int64(i)
	}
	for len(live) > 1 {
		k := rng.Intn(len(live))
		if err := e.Delete([]int64{live[k]}); err != nil {
			t.Fatal(err)
		}
		live = append(live[:k], live[k+1:]...)
	}
	if e.LiveN() != 1 {
		t.Fatalf("LiveN = %d, want 1", e.LiveN())
	}
	var ws kdtree.KNNWorkspace
	nb, err := e.KNNLive(ctx, 0, 3, &ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(nb) != 1 || nb[0].Idx != 0 || nb[0].Dist != 0 {
		t.Fatalf("KNN over a single survivor = %v", nb)
	}
	ids, err := e.Insert(randPoints(9, 2, 79))
	if err != nil {
		t.Fatal(err)
	}
	if e.LiveN() != 10 {
		t.Fatalf("LiveN = %d, want 10", e.LiveN())
	}
	if err := e.Delete(ids[:3]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CanonTree(ctx); err != nil {
		t.Fatal(err)
	}
	if e.LiveN() != 7 || e.Dirty() {
		t.Fatalf("after regrow+compact: LiveN=%d dirty=%v", e.LiveN(), e.Dirty())
	}
}
