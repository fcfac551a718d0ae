package main

// -compare: judge a change's runs (B) against its parent's (A) with the
// bounds BENCHMARK.json fixes. Each input is a file of run records, one JSON
// object per line, as -out appends them.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// spec is BENCHMARK.json.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// specMetric is one metric of BENCHMARK.json; per-layer metrics have no
// bound.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (spec, error) {
	var s spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("read benchmark spec: %w", err)
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("parse %s: %w", path, err)
	}
	return s, nil
}

// record is one workload run as -out writes it.
type record struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Seconds   int              `json:"seconds"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Failures  []string         `json:"failures,omitempty"`
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open results: %w", err)
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return recs, nil
}

// Verdicts of one (workload, metric) pair.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict judges B's runs against A's. A pair is worse when B's median is
// worse than A's by more than bound (a share of A's median). When either
// side's own spread — interquartile range over median — exceeds the bound,
// the difference cannot be told from noise: the pair is unresolved, unless
// every B run beats every A run.
func verdict(a, b []float64, better string, bound float64) (string, float64) {
	sign := 1.0 // positive change = worse
	if better == "higher" {
		sign = -1
	}
	ma, mb := median(a), median(b)
	change := sign * (mb - ma) / ma
	if spread(a) > bound || spread(b) > bound {
		if allBetter(a, b, sign) {
			return verdictOK, change
		}
		return verdictUnresolved, change
	}
	if change > bound {
		return verdictWorse, change
	}
	return verdictOK, change
}

func allBetter(a, b []float64, sign float64) bool {
	worstB, bestA := slices.Max(b), slices.Min(a)
	if sign < 0 {
		worstB, bestA = slices.Min(b), slices.Max(a)
		return worstB > bestA
	}
	return worstB < bestA
}

// compare prints a verdict for every (workload, end-to-end metric) pair
// present on both sides, and flags exact counters that differ between any
// two traced runs of one workload and seed. It reports whether no pair is
// worse and no counter differs.
func compare(s spec, a, b []record, w io.Writer) bool {
	good := true
	var workloads []string
	for _, r := range append(slices.Clone(a), b...) {
		if !slices.Contains(workloads, r.Workload) {
			workloads = append(workloads, r.Workload)
		}
	}
	fmt.Fprintf(w, "%-18s %-13s %28s %28s %8s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "verdict")
	for _, wl := range workloads {
		for _, m := range s.EndToEnd {
			va, vb := series(a, wl, m.Name), series(b, wl, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, change := verdict(va, vb, m.Better, m.Bound)
			if v == verdictWorse {
				good = false
			}
			fmt.Fprintf(w, "%-18s %-13s %28s %28s %+7.1f%%  %s (bound %.0f%%)\n",
				wl, m.Name, quartileText(va), quartileText(vb), 100*change, v, 100*m.Bound)
		}
	}
	for _, m := range s.PerLayer {
		if !exactCounter(metricDef{m.Name, m.Unit}) {
			continue
		}
		seen := map[string]float64{}
		for _, r := range append(slices.Clone(a), b...) {
			v, ok := r.Metrics[m.Name]
			if !r.Trace || !ok {
				continue
			}
			key := fmt.Sprintf("%s seed %d", r.Workload, r.Seed)
			if prev, ok := seen[key]; ok && prev != v.Value {
				fmt.Fprintf(w, "counter differs: %s %s: %v vs %v\n", key, m.Name, prev, v.Value)
				good = false
			}
			seen[key] = v.Value
		}
	}
	return good
}

// series collects a metric's values over the untraced runs of a workload.
func series(recs []record, workload, metric string) []float64 {
	var xs []float64
	for _, r := range recs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

func quartileText(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", q2, q1, q3, len(xs))
}

func runCompare(files []string, specPath string, stdout io.Writer) error {
	if len(files) != 2 {
		return fmt.Errorf("-compare wants two result files, got %d", len(files))
	}
	s, err := readSpec(specPath)
	if err != nil {
		return err
	}
	a, err := readRecords(files[0])
	if err != nil {
		return err
	}
	b, err := readRecords(files[1])
	if err != nil {
		return err
	}
	if !compare(s, a, b, stdout) {
		return errRegression
	}
	return nil
}
