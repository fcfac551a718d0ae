package parclust

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"parclust/internal/engine"
	"parclust/internal/hdbscan"
	"parclust/internal/kdtree"
	"parclust/internal/metric"
	"parclust/internal/mst"
	"parclust/internal/wspd"
)

// The build-report contract: a report belongs to the memoized stage, not to
// the caller. Whoever ran the build, waited on it, or hit the memo later
// reads the same value, and its counters are those of the MST run itself.

// holdFlight installs an engine.TestBuildHook that parks the singleflight
// leader of the stage family until release is called; the cleanup removes
// the hook.
func holdFlight(t *testing.T, stage string) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	engine.TestBuildHook = func(s string) {
		if s == stage {
			<-gate
		}
	}
	t.Cleanup(func() { engine.TestBuildHook = nil })
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }
}

// waitCoalesced polls read until it reaches want, releasing the held
// flight and failing on timeout.
func waitCoalesced(t *testing.T, release func(), read func() int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for read() != want {
		if time.Now().After(deadline) {
			release()
			t.Fatalf("timed out waiting for %d coalesced requests, have %d", want, read())
		}
		time.Sleep(time.Millisecond)
	}
}

// workCounters are a report's four MST counters.
func workCounters(s Stats) [4]int64 {
	return [4]int64{s.PairsMaterialized, s.PeakPairsResident, s.BCCPComputed, s.Rounds}
}

// directHDBSCAN runs the HDBSCAN* MemoGFK MST with its own recorder on a
// tree built as the Index builds it.
func directHDBSCAN(pts Points, minPts int) Stats {
	t := kdtree.BuildMetric(pts, 1, metric.L2{})
	t.AnnotateCoreDists(t.CoreDistances(minPts))
	st := mst.NewStats()
	hdbscan.MSTOnAnnotatedTree(t, hdbscan.MemoGFK, metric.L2{}, nil, st)
	return *st
}

// directEMST runs the Euclidean MemoGFK MST with its own recorder on a tree
// built as the Index builds it.
func directEMST(pts Points) Stats {
	t := kdtree.BuildMetric(pts, 1, metric.L2{})
	st := mst.NewStats()
	mst.MemoGFK(mst.Config{Tree: t, Metric: kdtree.NewEuclidean(t), Sep: wspd.Geometric{S: 2}, Stats: st})
	return *st
}

// checkPhases fails unless exactly the phases in ran were timed.
func checkPhases(t *testing.T, rep Stats, ran ...Phase) {
	t.Helper()
	var want [mst.NumPhases]bool
	for _, p := range ran {
		want[p] = true
	}
	for p, d := range rep.Phases {
		if want[p] != (d > 0) {
			t.Errorf("phase %v: %v, want timed=%v", Phase(p), d, want[p])
		}
	}
}

// TestBuildReportContract: for HDBSCAN*, single linkage and the EMST, the
// cold leader, every follower parked on its flight and a later warm hit
// read == reports, and the report's counters equal those of a direct
// MemoGFK run on an identically built tree.
func TestBuildReportContract(t *testing.T) {
	const clients = 4
	pts := GenerateUniform(2000, 3, 31)
	hierReport := func(h *Hierarchy, err error) (Stats, error) {
		if err != nil {
			return Stats{}, err
		}
		return h.BuildReport(), nil
	}
	cases := []struct {
		name      string
		stage     string
		coalesced func(IndexStats) int64
		report    func(*Index) (Stats, error)
		direct    Stats
		phases    []Phase
	}{
		{
			name:      "hdbscan",
			stage:     "hier",
			coalesced: func(c IndexStats) int64 { return c.DendrogramCoalesced },
			report:    func(ix *Index) (Stats, error) { return hierReport(ix.HDBSCAN(10)) },
			direct:    directHDBSCAN(pts, 10),
			phases:    []Phase{mst.PhaseBuildTree, mst.PhaseCoreDist, mst.PhaseWSPD, mst.PhaseKruskal, mst.PhaseDendrogram},
		},
		{
			name:      "single-linkage",
			stage:     "hier",
			coalesced: func(c IndexStats) int64 { return c.DendrogramCoalesced },
			report:    func(ix *Index) (Stats, error) { return hierReport(ix.SingleLinkage()) },
			direct:    directEMST(pts),
			phases:    []Phase{mst.PhaseBuildTree, mst.PhaseWSPD, mst.PhaseKruskal, mst.PhaseDendrogram},
		},
		{
			name:      "emst",
			stage:     "mst",
			coalesced: func(c IndexStats) int64 { return c.MSTCoalesced },
			report:    func(ix *Index) (Stats, error) { return ix.EMSTBuildReport(EMSTMemoGFK) },
			direct:    directEMST(pts),
			phases:    []Phase{mst.PhaseBuildTree, mst.PhaseWSPD, mst.PhaseKruskal},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ix, err := NewIndex(pts, nil)
			if err != nil {
				t.Fatal(err)
			}
			release := holdFlight(t, tc.stage)
			reps := make([]Stats, clients)
			errs := make([]error, clients)
			var wg sync.WaitGroup
			for i := range clients {
				wg.Add(1)
				go func() {
					defer wg.Done()
					reps[i], errs[i] = tc.report(ix)
				}()
			}
			waitCoalesced(t, release, func() int64 { return tc.coalesced(ix.Stats()) }, clients-1)
			release()
			wg.Wait()
			warm, err := tc.report(ix)
			if err != nil {
				t.Fatal(err)
			}
			for i := range clients {
				if errs[i] != nil {
					t.Fatalf("client %d: %v", i, errs[i])
				}
				if reps[i] != warm {
					t.Fatalf("client %d read %+v, warm hit read %+v", i, reps[i], warm)
				}
			}
			checkPhases(t, warm, tc.phases...)
			if got, want := workCounters(warm), workCounters(tc.direct); got != want || want[2] == 0 {
				t.Fatalf("counters %v, direct run %v", got, want)
			}
		})
	}
}

// TestBuildReportCoversItsOwnFlight: a stage's report lists the upstream
// phases only when its own flight built them.
func TestBuildReportCoversItsOwnFlight(t *testing.T) {
	ix, err := NewIndex(GenerateUniform(1500, 2, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.EMST(); err != nil {
		t.Fatal(err)
	}
	sl, err := ix.SingleLinkage()
	if err != nil {
		t.Fatal(err)
	}
	rep := sl.BuildReport()
	checkPhases(t, rep, mst.PhaseDendrogram)
	if workCounters(rep) != [4]int64{} {
		t.Fatalf("single linkage over a memoized MST reports MST work %v", workCounters(rep))
	}

	if _, err := ix.HDBSCAN(10); err != nil {
		t.Fatal(err)
	}
	h, err := ix.HDBSCAN(5)
	if err != nil {
		t.Fatal(err)
	}
	checkPhases(t, h.BuildReport(), mst.PhaseCoreDist, mst.PhaseWSPD, mst.PhaseKruskal, mst.PhaseDendrogram)
}

// TestBuildReportAfterInsert: a mutation drops the memoized stages, and the
// rebuilt stage carries the report of its own build, whose counters match
// a fresh Index over the same live points.
func TestBuildReportAfterInsert(t *testing.T) {
	pts := GenerateUniform(1500, 3, 5)
	extra := GenerateUniform(40, 3, 6)
	ix, err := NewIndex(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := ix.HDBSCAN(10)
	if err != nil {
		t.Fatal(err)
	}
	before := h1.BuildReport()
	if _, err := ix.Insert(extra); err != nil {
		t.Fatal(err)
	}
	h2, err := ix.HDBSCAN(10)
	if err != nil {
		t.Fatal(err)
	}
	after := h2.BuildReport()
	if after == before {
		t.Fatal("the rebuilt stage repeats the report of the stage it replaced")
	}
	if after.Phases[mst.PhaseCoreDist] <= 0 || after.Phases[mst.PhaseDendrogram] <= 0 {
		t.Fatalf("rebuilt stage report lacks its own phases: %v", after.Phases)
	}
	if h1.BuildReport() != before {
		t.Fatal("a mutation changed the report of an earlier hierarchy")
	}
	live := NewPoints(pts.N+extra.N, pts.Dim)
	copy(live.Data, pts.Data)
	copy(live.Data[len(pts.Data):], extra.Data)
	fresh, err := HDBSCAN(live, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := workCounters(after), workCounters(fresh.BuildReport()); got != want {
		t.Fatalf("mutated rebuild counters %v, fresh build %v", got, want)
	}
}

// TestBuildReportRestoredIsZero: stages seeded from a snapshot were built
// by no flight of the restored Index, so they report zero.
func TestBuildReportRestoredIsZero(t *testing.T) {
	ix, err := NewIndex(GenerateUniform(800, 2, 9), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.HDBSCAN(10); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.EMST(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h, err := back.HDBSCAN(10)
	if err != nil {
		t.Fatal(err)
	}
	if rep := h.BuildReport(); rep != (Stats{}) {
		t.Fatalf("restored hierarchy reports %+v", rep)
	}
	if rep, err := back.EMSTBuildReport(EMSTMemoGFK); err != nil || rep != (Stats{}) {
		t.Fatalf("restored EMST reports (%+v, %v)", rep, err)
	}
	if c := back.Stats(); c.MSTBuilds+c.DendrogramBuilds != 0 {
		t.Fatalf("restored Index rebuilt stages: %+v", c)
	}
}

// TestApproxOPTICSBuildReport: ApproxOPTICS reports its own run.
func TestApproxOPTICSBuildReport(t *testing.T) {
	h, err := ApproxOPTICS(GenerateUniform(1000, 2, 4), 5, 0.125)
	if err != nil {
		t.Fatal(err)
	}
	rep := h.BuildReport()
	checkPhases(t, rep, mst.PhaseBuildTree, mst.PhaseCoreDist, mst.PhaseWSPD, mst.PhaseGenEdges, mst.PhaseKruskal, mst.PhaseDendrogram)
	if rep.PairsMaterialized == 0 || rep.PeakPairsResident == 0 {
		t.Fatalf("counters not recorded: %+v", rep)
	}
}
