package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload at toy scale with one-second windows,
// untraced and traced, checks on, and holds each result line to the
// format the benchmark promises. It then compares the runs with
// themselves.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "parclustd")
	if out, err := exec.Command("go", "build", "-o", bin, "parclust/cmd/parclustd").CombinedOutput(); err != nil {
		t.Fatalf("build parclustd: %v\n%s", err, out)
	}
	runs := filepath.Join(dir, "runs.jsonl")
	for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"-seconds", "1", "-trace", trace, "-daemon", bin, "-out", runs, "-trace-out", filepath.Join(dir, "trace.json")}
		if err := run(args, &stdout, &stderr, 0.05); err != nil {
			t.Fatalf("trace %s: %v\n%s", trace, err, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		if len(lines) != len(workloads(1)) {
			t.Fatalf("trace %s: %d result lines, want one per workload:\n%s", trace, len(lines), stdout.String())
		}
		for _, line := range lines {
			checkResultLine(t, line, defs)
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-compare", "-spec", filepath.Join("..", "BENCHMARK.json"), runs, runs}, &out, io.Discard, 1); err != nil {
		t.Errorf("runs compared with themselves: %v\n%s", err, out.String())
	}
}

// checkResultLine holds one result line to its contract: exactly the keys
// correct, attempted, failed and metrics; a correct run with at least one
// operation and none failed; and every metric of defs with its unit.
func checkResultLine(t *testing.T, line string, defs []metricDef) {
	t.Helper()
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &keys); err != nil {
		t.Fatalf("result line is not JSON: %v\n%s", err, line)
	}
	if len(keys) != 4 {
		t.Errorf("result line has keys %v, want correct, attempted, failed, metrics", sortedNames(keys))
	}
	var res struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("metric %s: %+v, want unit %s", d.Name, m, d.Unit)
		}
	}
}
