package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"within bound", steady, []float64{103, 104, 102, 103, 105}, "lower", verdictOK},
		{"faster", steady, []float64{80, 81, 79, 80, 82}, "lower", verdictOK},
		{"slower beyond bound", steady, []float64{120, 121, 119, 122, 120}, "lower", verdictWorse},
		{"higher-is-better drop", steady, []float64{80, 81, 79, 80, 82}, "higher", verdictWorse},
		{"higher-is-better rise", steady, []float64{120, 121, 119, 122, 120}, "higher", verdictOK},
		{"noisy parent", []float64{100, 150, 60, 130, 80}, []float64{101, 99, 100, 102, 100}, "lower", verdictUnresolved},
		{"noisy change", steady, []float64{100, 150, 60, 130, 80}, "lower", verdictUnresolved},
		// Every change run beats every parent run: a gain even through noise.
		{"noisy but separated", []float64{100, 150, 120, 130, 110}, []float64{50, 60, 70, 80, 90}, "lower", verdictOK},
	} {
		got, _ := verdict(c.a, c.b, c.better, 0.1)
		if got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func syntheticSpec() spec {
	return spec{
		EndToEnd: []specMetric{{Name: "cluster_ms", Unit: "ms", Better: "lower", Bound: 0.1}},
		PerLayer: []specMetric{
			{Name: "mst.hdbscan.bccp_calls", Unit: "count", Better: "lower"},
			{Name: "bench.requests", Unit: "count", Better: "higher"},
		},
	}
}

func runs(workload string, trace bool, seed int64, metric string, values ...float64) []record {
	var recs []record
	for _, v := range values {
		recs = append(recs, record{Workload: workload, Seed: seed, Trace: trace, Metrics: map[string]value{metric: {Value: v}}})
	}
	return recs
}

func TestCompareFlagsRegressionsAndCounters(t *testing.T) {
	s := syntheticSpec()
	a := runs("w", false, 1, "cluster_ms", 100, 101, 99)
	b := runs("w", false, 1, "cluster_ms", 100, 102, 98)
	var out bytes.Buffer
	if !compare(s, a, b, &out) || !strings.Contains(out.String(), "ok") {
		t.Errorf("equal runs judged bad:\n%s", out.String())
	}

	out.Reset()
	if compare(s, a, runs("w", false, 1, "cluster_ms", 130, 131, 129), &out) || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("a 30%% slowdown passed:\n%s", out.String())
	}

	// Exact counters must agree between traced runs of one seed; another
	// seed may differ, and bench.* counts are not exact.
	ta := append(runs("w", true, 1, "mst.hdbscan.bccp_calls", 500), runs("w", true, 2, "mst.hdbscan.bccp_calls", 700)...)
	tb := append(runs("w", true, 1, "mst.hdbscan.bccp_calls", 500), runs("w", true, 1, "bench.requests", 9)...)
	tb = append(tb, runs("w", true, 1, "bench.requests", 10)...)
	out.Reset()
	if !compare(s, ta, tb, &out) {
		t.Errorf("matching counters flagged:\n%s", out.String())
	}
	out.Reset()
	if compare(s, ta, runs("w", true, 1, "mst.hdbscan.bccp_calls", 501), &out) || !strings.Contains(out.String(), "counter differs") {
		t.Errorf("a changed counter passed:\n%s", out.String())
	}
}

func TestRunCompareReadsRecordFiles(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, []byte(`{"end_to_end":[{"name":"cluster_ms","unit":"ms","better":"lower","bound":0.1}],"per_layer":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, recs []record) string {
		path := filepath.Join(dir, name)
		for _, r := range recs {
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.jsonl", runs("w", false, 1, "cluster_ms", 100, 101, 99))
	b := write("b.jsonl", runs("w", false, 1, "cluster_ms", 150, 151, 149))
	var out bytes.Buffer
	if err := runCompare([]string{a, a}, specPath, &out); err != nil {
		t.Errorf("a file against itself: %v\n%s", err, out.String())
	}
	if err := runCompare([]string{a, b}, specPath, &out); !errors.Is(err, errRegression) {
		t.Errorf("a 50%% slowdown: err %v, want errRegression", err)
	}
	if err := runCompare([]string{a}, specPath, &out); err == nil {
		t.Error("one file accepted")
	}
}

// BENCHMARK.json and the metric tables the command reports must name the
// same metrics with the same units, in the same order.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	s, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.EndToEnd) != len(endToEnd) || len(s.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the command reports %d+%d",
			len(s.EndToEnd), len(s.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range s.EndToEnd {
		if (metricDef{m.Name, m.Unit}) != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %s %s, command reports %v", i, m.Name, m.Unit, endToEnd[i])
		}
	}
	for i, m := range s.PerLayer {
		if (metricDef{m.Name, m.Unit}) != perLayer[i] {
			t.Errorf("per_layer[%d] = %s %s, command reports %v", i, m.Name, m.Unit, perLayer[i])
		}
	}
	ws := workloads(1)
	if len(s.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(s.Workloads), len(ws))
	}
	for i, w := range ws {
		if s.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the command", i, s.Workloads[i].Name, w.name)
		}
	}
}
