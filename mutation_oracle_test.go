package parclust

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// mutModel mirrors the live point set of a mutated Index with the raw
// (pre-normalization) input rows in ascending external-id order — exactly
// the row order a compaction uses, so points() is the input an equivalent
// fresh Index would be built from.
type mutModel struct {
	dim  int
	ids  []int64
	rows [][]float64
}

func (m *mutModel) insert(t *testing.T, ids []int64, rows Points) {
	t.Helper()
	if len(ids) != rows.N {
		t.Fatalf("Insert returned %d ids for %d rows", len(ids), rows.N)
	}
	for i, id := range ids {
		if len(m.ids) > 0 && id <= m.ids[len(m.ids)-1] {
			t.Fatalf("Insert id %d not monotonic (last live %d)", id, m.ids[len(m.ids)-1])
		}
		m.ids = append(m.ids, id)
		m.rows = append(m.rows, append([]float64(nil), rows.Data[i*rows.Dim:(i+1)*rows.Dim]...))
	}
}

func (m *mutModel) remove(ids []int64) {
	drop := make(map[int64]bool, len(ids))
	for _, id := range ids {
		drop[id] = true
	}
	keepIDs := m.ids[:0]
	keepRows := m.rows[:0]
	for i, id := range m.ids {
		if !drop[id] {
			keepIDs = append(keepIDs, id)
			keepRows = append(keepRows, m.rows[i])
		}
	}
	m.ids = keepIDs
	m.rows = keepRows
}

func (m *mutModel) points() Points {
	data := make([]float64, 0, len(m.rows)*m.dim)
	for _, r := range m.rows {
		data = append(data, r...)
	}
	return Points{Data: data, N: len(m.rows), Dim: m.dim}
}

// pick samples k distinct live external ids.
func (m *mutModel) pick(rng *rand.Rand, k int) []int64 {
	if k > len(m.ids) {
		k = len(m.ids)
	}
	perm := rng.Perm(len(m.ids))[:k]
	out := make([]int64, k)
	for i, p := range perm {
		out[i] = m.ids[p]
	}
	return out
}

func randRows(rng *rand.Rand, n, dim int) Points {
	data := make([]float64, n*dim)
	for i := range data {
		data[i] = rng.Float64()*2 - 0.5
	}
	return Points{Data: data, N: n, Dim: dim}
}

// assertMutationOracle checks that idx — after an arbitrary mutation
// sequence — answers byte-identically to a fresh Index built over the
// equivalent surviving rows, across every query family.
func assertMutationOracle(t *testing.T, idx *Index, model *mutModel, opts *IndexOptions, rng *rand.Rand) {
	t.Helper()
	fresh, err := NewIndex(model.points(), opts)
	if err != nil {
		t.Fatalf("fresh build: %v", err)
	}
	n := fresh.N()
	if got := idx.N(); got != n {
		t.Fatalf("live N = %d, fresh N = %d", got, n)
	}
	if got := idx.ExternalIDs(); !reflect.DeepEqual(got, model.ids) && !(len(got) == 0 && len(model.ids) == 0) {
		t.Fatalf("ExternalIDs = %v, want %v", got, model.ids)
	}
	if n == 0 {
		return
	}

	minPts := 5
	if minPts > n {
		minPts = n
	}
	cdLive, err := idx.CoreDistances(minPts)
	if err != nil {
		t.Fatalf("live CoreDistances: %v", err)
	}
	cdFresh, err := fresh.CoreDistances(minPts)
	if err != nil {
		t.Fatalf("fresh CoreDistances: %v", err)
	}
	if !reflect.DeepEqual(cdLive, cdFresh) {
		t.Fatalf("core distances diverge from fresh build (minPts=%d)", minPts)
	}

	if n > 1 {
		emstLive, err := idx.EMST()
		if err != nil {
			t.Fatalf("live EMST: %v", err)
		}
		emstFresh, err := fresh.EMST()
		if err != nil {
			t.Fatalf("fresh EMST: %v", err)
		}
		if !reflect.DeepEqual(emstLive, emstFresh) {
			t.Fatalf("EMST diverges from fresh build")
		}

		hLive, err := idx.HDBSCAN(minPts)
		if err != nil {
			t.Fatalf("live HDBSCAN: %v", err)
		}
		hFresh, err := fresh.HDBSCAN(minPts)
		if err != nil {
			t.Fatalf("fresh HDBSCAN: %v", err)
		}
		if !reflect.DeepEqual(hLive.MST, hFresh.MST) {
			t.Fatalf("HDBSCAN MST diverges from fresh build")
		}
		for _, eps := range []float64{0.05, 0.2, 0.6} {
			cl, cf := hLive.ClustersAt(eps), hFresh.ClustersAt(eps)
			if !reflect.DeepEqual(cl, cf) {
				t.Fatalf("HDBSCAN labels diverge at eps=%v", eps)
			}
		}

		dLive, err := idx.DBSCAN(minPts, 0.3)
		if err != nil {
			t.Fatalf("live DBSCAN: %v", err)
		}
		dFresh, err := fresh.DBSCAN(minPts, 0.3)
		if err != nil {
			t.Fatalf("fresh DBSCAN: %v", err)
		}
		if !reflect.DeepEqual(dLive, dFresh) {
			t.Fatalf("DBSCAN labels diverge from fresh build")
		}
	}

	// Point queries, on a sample of dense ids. The live KNN path breaks
	// distance ties by dense id, which matches the static tree's ordering
	// only up to ties — the continuous random rows here make exact ties a
	// measure-zero event.
	k := 4
	if k > n {
		k = n
	}
	for i := 0; i < 6; i++ {
		q := int32(rng.Intn(n))
		nl, err := idx.KNN(q, k)
		if err != nil {
			t.Fatalf("live KNN(%d): %v", q, err)
		}
		nf, err := fresh.KNN(q, k)
		if err != nil {
			t.Fatalf("fresh KNN(%d): %v", q, err)
		}
		if !reflect.DeepEqual(nl, nf) {
			t.Fatalf("KNN(%d) diverges: live %v, fresh %v", q, nl, nf)
		}

		r := 0.1 + rng.Float64()*0.4
		rl, err := idx.RangeQuery(q, r)
		if err != nil {
			t.Fatalf("live RangeQuery(%d): %v", q, err)
		}
		rf, err := fresh.RangeQuery(q, r)
		if err != nil {
			t.Fatalf("fresh RangeQuery(%d): %v", q, err)
		}
		sort.Slice(rl, func(a, b int) bool { return rl[a] < rl[b] })
		sort.Slice(rf, func(a, b int) bool { return rf[a] < rf[b] })
		if !reflect.DeepEqual(rl, rf) && !(len(rl) == 0 && len(rf) == 0) {
			t.Fatalf("RangeQuery(%d, %v) diverges: live %v, fresh %v", q, r, rl, rf)
		}

		cl, err := idx.RangeCount(q, r)
		if err != nil {
			t.Fatalf("live RangeCount(%d): %v", q, err)
		}
		if cf, _ := fresh.RangeCount(q, r); cl != cf {
			t.Fatalf("RangeCount(%d, %v) = %d, fresh %d", q, r, cl, cf)
		}
	}
}

// TestMutationOracle is the PR's correctness pin: randomized insert/delete
// sequences across metrics and dtypes, with every query family compared
// byte-for-byte against an Index freshly built on the surviving rows.
func TestMutationOracle(t *testing.T) {
	configs := []struct {
		name string
		opts *IndexOptions
	}{
		{"l2", &IndexOptions{Metric: MetricL2}},
		{"l2-f32", (&IndexOptions{Metric: MetricL2}).WithFloat32()},
		{"sql2", &IndexOptions{Metric: MetricSqL2}},
		{"l1", &IndexOptions{Metric: MetricL1}},
		{"l1-f32", (&IndexOptions{Metric: MetricL1}).WithFloat32()},
		{"linf", &IndexOptions{Metric: MetricLInf}},
		{"angular", &IndexOptions{Metric: MetricAngular}},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(42))
			const n0, dim = 220, 3
			initial := randRows(rng, n0, dim)
			idx, err := NewIndex(initial, cfg.opts)
			if err != nil {
				t.Fatal(err)
			}
			model := &mutModel{dim: dim}
			for i := 0; i < n0; i++ {
				model.ids = append(model.ids, int64(i))
				model.rows = append(model.rows, initial.Data[i*dim:(i+1)*dim])
			}

			for round := 0; round < 5; round++ {
				ins := randRows(rng, 20+rng.Intn(30), dim)
				ids, err := idx.Insert(ins)
				if err != nil {
					t.Fatalf("round %d: Insert: %v", round, err)
				}
				model.insert(t, ids, ins)

				del := model.pick(rng, 10+rng.Intn(25))
				if err := idx.Delete(del); err != nil {
					t.Fatalf("round %d: Delete: %v", round, err)
				}
				model.remove(del)

				if round%2 == 1 {
					assertMutationOracle(t, idx, model, cfg.opts, rng)
				}
			}
			assertMutationOracle(t, idx, model, cfg.opts, rng)

			s := idx.Stats()
			if s.TreePatches == 0 {
				t.Fatalf("no tree patches recorded after mutations: %+v", s)
			}
			if s.MutationEpoch == 0 {
				t.Fatalf("mutation epoch never advanced: %+v", s)
			}
			if cfg.opts.Float32 {
				// f32 engines compact eagerly on every mutation: the SoA
				// panels must always describe the full live set.
				if idx.Dirty() {
					t.Fatalf("float32 Index left dirty after mutations")
				}
			} else if s.Compactions == 0 {
				t.Fatalf("backlog threshold never triggered a compaction: %+v", s)
			}
			if idx.MutationEpoch() != s.MutationEpoch {
				t.Fatalf("MutationEpoch() = %d, counters say %d", idx.MutationEpoch(), s.MutationEpoch)
			}
			// An explicit Compact leaves a clean Index whose dynamic stats
			// report zero backlog, and the oracle still holds afterwards.
			if err := idx.Compact(); err != nil {
				t.Fatalf("Compact: %v", err)
			}
			ds := idx.DynStats()
			if ds.Dirty || ds.Overlay != 0 || ds.Tombstones != 0 || ds.Live != idx.N() {
				t.Fatalf("post-Compact DynStats = %+v, want clean with live=%d", ds, idx.N())
			}
			assertMutationOracle(t, idx, model, cfg.opts, rng)
		})
	}
}

// TestMutationValidation pins the all-or-nothing mutation error contract.
func TestMutationValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	idx, err := NewIndex(randRows(rng, 50, 2), nil)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := idx.Insert(Points{Data: []float64{1, 2, 3}, N: 1, Dim: 3}); err == nil {
		t.Fatal("Insert with wrong dimension succeeded")
	}
	if _, err := idx.Insert(Points{Data: []float64{1, math.Inf(1)}, N: 1, Dim: 2}); err == nil {
		t.Fatal("Insert with non-finite coordinate succeeded")
	}

	// Unknown id: never assigned, already deleted, or duplicated in-batch.
	for _, ids := range [][]int64{{50}, {-1}, {3, 3}} {
		if err := idx.Delete(ids); !errors.Is(err, ErrUnknownID) {
			t.Fatalf("Delete(%v) = %v, want ErrUnknownID", ids, err)
		}
	}
	if err := idx.Delete([]int64{10}); err != nil {
		t.Fatal(err)
	}
	if err := idx.Delete([]int64{10}); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("double delete = %v, want ErrUnknownID", err)
	}
	// A failed batch must leave the Index unchanged: id 20 stays live even
	// though it appeared in a batch with an unknown id.
	if err := idx.Delete([]int64{20, 10}); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("mixed batch = %v, want ErrUnknownID", err)
	}
	if err := idx.Delete([]int64{20}); err != nil {
		t.Fatalf("id 20 was deleted by a failed batch: %v", err)
	}
	if idx.N() != 48 {
		t.Fatalf("N = %d, want 48", idx.N())
	}
}

// TestMutationShrinkToEmpty drains an Index via deletes and grows it back,
// exercising the N<=1 stage guards.
func TestMutationShrinkToEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	idx, err := NewIndex(randRows(rng, 8, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	model := &mutModel{dim: 2}
	for i := 0; i < 8; i++ {
		model.ids = append(model.ids, int64(i))
		model.rows = append(model.rows, append([]float64(nil), idx.eng.Pts.Data[i*2:(i+1)*2]...))
	}
	all := append([]int64(nil), model.ids...)
	if err := idx.Delete(all[:7]); err != nil {
		t.Fatal(err)
	}
	model.remove(all[:7])
	if edges, err := idx.EMST(); err != nil || len(edges) != 0 {
		t.Fatalf("EMST on 1 point = (%v, %v)", edges, err)
	}
	assertMutationOracle(t, idx, model, nil, rng)
	if err := idx.Delete(all[7:]); err != nil {
		t.Fatal(err)
	}
	model.remove(all[7:])
	if idx.N() != 0 {
		t.Fatalf("N = %d after full drain", idx.N())
	}
	for _, build := range []func() (*Hierarchy, error){
		func() (*Hierarchy, error) { return idx.HDBSCAN(1) },
		idx.SingleLinkage,
	} {
		h, err := build()
		if err != nil {
			t.Fatal(err)
		}
		checkEmptyHierarchy(t, h)
	}
	ins := randRows(rng, 30, 2)
	ids, err := idx.Insert(ins)
	if err != nil {
		t.Fatal(err)
	}
	model.insert(t, ids, ins)
	assertMutationOracle(t, idx, model, nil, rng)
}

// checkEmptyHierarchy asserts that a hierarchy over zero points answers
// every query with an empty result.
func checkEmptyHierarchy(t *testing.T, h *Hierarchy) {
	t.Helper()
	if plot := h.ReachabilityPlot(); len(plot) != 0 {
		t.Fatalf("reachability plot of an empty hierarchy: %v", plot)
	}
	if c := h.ExtractStableClusters(2); c.NumClusters != 0 || len(c.Labels) != 0 {
		t.Fatalf("stable clusters of an empty hierarchy: %+v", c)
	}
	if c := h.ClustersAt(1); c.NumClusters != 0 || len(c.Labels) != 0 {
		t.Fatalf("cut of an empty hierarchy: %+v", c)
	}
	var b bytes.Buffer
	if err := h.WriteNewick(&b, nil); err != nil || b.String() != ";\n" {
		t.Fatalf("Newick of an empty hierarchy: (%q, %v)", b.String(), err)
	}
}

// TestMutatedSnapshotRoundTrip pins snapshot durability across mutations:
// WriteSnapshot on a dirty Index compacts and persists the canonical base,
// and the restored Index answers byte-identically (with dense ids
// renumbered 0..m-1).
func TestMutatedSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	idx, err := NewIndex(randRows(rng, 120, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	model := &mutModel{dim: 3}
	for i := 0; i < 120; i++ {
		model.ids = append(model.ids, int64(i))
		model.rows = append(model.rows, append([]float64(nil), idx.eng.Pts.Data[i*3:(i+1)*3]...))
	}
	ins := randRows(rng, 15, 3)
	ids, err := idx.Insert(ins)
	if err != nil {
		t.Fatal(err)
	}
	model.insert(t, ids, ins)
	del := model.pick(rng, 10)
	if err := idx.Delete(del); err != nil {
		t.Fatal(err)
	}
	model.remove(del)
	if _, err := idx.HDBSCAN(5); err != nil { // populate stages post-mutation
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := idx.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if idx.Dirty() {
		t.Fatal("Index still dirty after WriteSnapshot")
	}
	restored, det, err := ReadSnapshotDetails(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(det.SkippedStages) != 0 {
		t.Fatalf("skipped stages: %v", det.SkippedStages)
	}
	if restored.N() != idx.N() {
		t.Fatalf("restored N = %d, want %d", restored.N(), idx.N())
	}
	// The restored Index renumbers external ids 0..m-1; dense-id queries
	// must still answer byte-identically.
	hLive, err := idx.HDBSCAN(5)
	if err != nil {
		t.Fatal(err)
	}
	hRest, err := restored.HDBSCAN(5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hLive.MST, hRest.MST) {
		t.Fatal("restored HDBSCAN MST diverges")
	}
	if got := restored.Stats().MSTBuilds; got != 0 {
		t.Fatalf("restored Index rebuilt the MST (%d builds): snapshot did not carry the compacted stage", got)
	}
	for q := int32(0); q < 5; q++ {
		nl, err := idx.KNN(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		nr, err := restored.KNN(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(nl, nr) {
			t.Fatalf("restored KNN(%d) diverges", q)
		}
	}
	if ids := restored.ExternalIDs(); int64(len(ids)) != int64(restored.N()) || (len(ids) > 0 && ids[len(ids)-1] != int64(restored.N()-1)) {
		t.Fatalf("restored external ids not renumbered 0..m-1: %v", ids)
	}
}
