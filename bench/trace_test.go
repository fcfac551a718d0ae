package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// spanTree is a repetition root with overlapping children, a child that
// runs past the root's end, a grandchild, and a childless second root:
//
//	root  bench.rep      [0, 100]
//	  a   kdtree.build   [10, 40]
//	    a1 dendrogram.x  [15, 20]
//	  b   mst.hdbscan    [30, 60]   overlaps a
//	  c   mst.emst       [90, 120]  ends after root
//	lone  daemon.knn     [200, 210]
func spanTree() []span {
	return []span{
		{ID: 1, Name: "bench.rep", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "kdtree.build", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "dendrogram.x", Start: 15, End: 20},
		{ID: 4, Parent: 1, Name: "mst.hdbscan", Start: 30, End: 60},
		{ID: 5, Parent: 1, Name: "mst.emst", Start: 90, End: 120},
		{ID: 6, Name: "daemon.knn", Start: 200, End: 210},
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	s := spanTree()
	// Children cover [10, 60] and, clipped to the root, [90, 100].
	if got := covered(s[0], s[1:5]); got != 60 {
		t.Errorf("covered(root) = %v, want 60ns", got)
	}
	if got := selfTime(s[0], []span{s[1], s[3], s[4]}); got != 40 {
		t.Errorf("self(root) = %v, want 40ns", got)
	}
	if got := selfTime(s[1], []span{s[2]}); got != 25 {
		t.Errorf("self(kdtree.build) = %v, want 25ns", got)
	}
	// Identical and nested children are one interval.
	if got := covered(s[0], []span{{Start: 5, End: 50}, {Start: 5, End: 50}, {Start: 10, End: 20}}); got != 45 {
		t.Errorf("covered by duplicate and nested children = %v, want 45ns", got)
	}
}

func TestSummarizeSelfTimeByLayer(t *testing.T) {
	sum := summarize(spanTree())
	want := map[string]float64{"bench": 40e-6, "kdtree": 25e-6, "dendrogram": 5e-6, "mst": 60e-6, "daemon": 10e-6}
	for layer, ms := range want {
		if got := sum.SelfMs[layer]; math.Abs(got-ms) > 1e-12 {
			t.Errorf("self time of %s = %vms, want %vms", layer, got, ms)
		}
	}
	if len(sum.SelfMs) != len(want) {
		t.Errorf("layers %v, want %v", sum.SelfMs, want)
	}
	// Only the repetition root has children; they cover 60 of its 100ns.
	if sum.Roots != 1 || sum.MinCoverage != 0.6 {
		t.Errorf("roots %d, min coverage %v; want 1, 0.6", sum.Roots, sum.MinCoverage)
	}
}

func TestTracerRecordsParentsAndWritesTrace(t *testing.T) {
	tr := newTracer()
	root := tr.newID()
	start := time.Now()
	tr.time("kdtree.build", root, 7, func() { time.Sleep(time.Millisecond) })
	tr.add(root, 0, 7, "bench.rep", start, time.Now())
	spans := tr.snapshot()
	if len(spans) != 2 || spans[0].Parent != root || spans[1].ID != root || spans[0].Req != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].dur() < time.Millisecond {
		t.Errorf("child span lasted %v, want >= 1ms", spans[0].dur())
	}

	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	sum := summarize(spans)
	if err := writeTrace(path, spans, sum); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Summary traceSummary `json:"summary"`
		Spans   []span       `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) != 2 || doc.Summary.Roots != 1 {
		t.Errorf("read back %d spans and %d roots, want 2 and 1", len(doc.Spans), doc.Summary.Roots)
	}
}

func TestTracerKeepsSpansAcrossChunks(t *testing.T) {
	tr := newTracer()
	const n = 2*spanChunk + 3
	for i := 0; i < n; i++ {
		tr.time("x.y", 0, int64(i), func() {})
	}
	spans := tr.snapshot()
	if len(spans) != n {
		t.Fatalf("%d spans, want %d", len(spans), n)
	}
	for i, s := range spans {
		if s.ID != int64(i+1) || s.Req != int64(i) {
			t.Fatalf("span %d is %+v, want id %d req %d", i, s, i+1, i)
		}
	}
}

func TestNilTracerOnlyTimes(t *testing.T) {
	var tr *tracer
	ran := false
	if d := tr.time("x.y", tr.newID(), 0, func() { ran = true }); d < 0 || !ran {
		t.Errorf("nil tracer: ran=%v d=%v", ran, d)
	}
	tr.add(1, 0, 0, "x.y", time.Now(), time.Now())
	if tr.snapshot() != nil {
		t.Error("nil tracer recorded spans")
	}
}
