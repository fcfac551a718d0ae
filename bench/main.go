// Command bench is parclust's benchmark: four seeded workloads, the
// end-to-end metrics a user of the library and of parclustd sees, a traced
// variant that measures every layer from outside, correctness checks on
// every run, and a comparison of two sets of runs against the bounds in
// BENCHMARK.json. README.md explains the workloads and metrics.
//
// Usage (bench/run.sh builds this command and parclustd, then runs it):
//
//	bench -workload serve-warm -seed 3 -seconds 25 -trace 0
//	bench -seed 1                        all four workloads
//	bench -trace 1 -trace-out t.json     traced runs, spans written to t.json
//	bench -out runs.jsonl ...            also append one record per run
//	bench -compare A.jsonl B.jsonl       judge B's runs against A's
//
// The last line of standard output is the run's JSON result; the report a
// person reads goes to standard error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"parclust"
)

// procs is the parallelism of every run, benchmark and daemon alike.
const procs = 2

var errRegression = errors.New("a metric got worse or an exact counter changed")

// env is what a workload run needs from the command line.
type env struct {
	seed    int64
	seconds time.Duration
	trace   *tracer // nil for an untraced run
	daemon  string  // parclustd binary
	log     io.Writer
	summary traceSummary // filled by a traced run
}

type workload struct {
	name string
	run  func(*env) (*outcome, error)
}

// workloads returns the benchmark's workloads with their sizes multiplied
// by scale (1 for the benchmark itself). BENCHMARK.json says why each
// exists; README.md gives the detail.
func workloads(scale float64) []workload {
	size := func(n int) int { return max(400, int(float64(n)*scale)) }
	return []workload{
		{"batch-geolife3d",
			func(e *env) (*outcome, error) {
				return runBatch(e, batchConfig{n: size(20000), points: geoLifeMix, queries: 500})
			}},
		{"batch-embed16-f32",
			func(e *env) (*outcome, error) {
				return runBatch(e, batchConfig{n: size(4000), f32: true, queries: 1000, corpus: 4,
					points: func(n int, seed int64) parclust.Points { return embedPoints(n, 16, 16, seed) }})
			}},
		{"serve-warm",
			func(e *env) (*outcome, error) {
				return runWarm(e, size(50000))
			}},
		{"serve-ingest",
			func(e *env) (*outcome, error) {
				return runIngest(e, size(30000))
			}},
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr, 1); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run parses the command line and runs the selected workloads, or a
// comparison. scale sizes the workloads (see workloads).
func run(args []string, stdout, stderr io.Writer, scale float64) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 25, "length of each workload's measured window")
	trace := fs.Int("trace", 0, "1 runs the traced variant, which reports the per-layer metrics")
	traceOut := fs.String("trace-out", "", "where a traced run writes its spans (default .bench_build/trace-<workload>-<seed>.json)")
	daemonBin := fs.String("daemon", filepath.Join(".bench_build", "parclustd"), "parclustd binary the serve workloads start")
	outFile := fs.String("out", "", "append one JSON record per workload run to this file")
	cmp := fs.Bool("compare", false, "compare two files of run records: -compare A B")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds -compare applies")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cmp {
		return runCompare(fs.Args(), *specPath, stdout)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	var selected []workload
	for _, w := range workloads(scale) {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q", *name)
	}
	runtime.GOMAXPROCS(procs)
	if err := os.Setenv("GOMAXPROCS", fmt.Sprint(procs)); err != nil { // inherited by parclustd
		return err
	}

	allCorrect := true
	for _, w := range selected {
		e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, daemon: *daemonBin, log: stderr}
		defs := endToEnd
		if *trace == 1 {
			e.trace = newTracer()
			defs = perLayer
		}
		fmt.Fprintf(stderr, "%s (seed %d, %ds window, trace %d)\n", w.name, *seed, *seconds, *trace)
		o, err := w.run(e)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		vals, err := o.report(defs)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printReport(stderr, defs, vals, o)
		if e.trace != nil {
			path := *traceOut
			if path == "" {
				path = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", w.name, *seed))
			}
			if err := writeTrace(path, e.trace.snapshot(), e.summary); err != nil {
				return err
			}
			printSelfTimes(stderr, e.summary, path)
		}
		rec := record{Workload: w.name, Seed: *seed, Trace: e.trace != nil, Seconds: *seconds,
			Correct: o.checks.ok(), Attempted: o.attempted, Failed: o.failed, Metrics: vals, Failures: o.checks.failures}
		if *outFile != "" {
			if err := appendRecord(*outFile, rec); err != nil {
				return err
			}
		}
		if err := printResult(stdout, rec); err != nil {
			return err
		}
		allCorrect = allCorrect && rec.Correct
	}
	if !allCorrect {
		return errors.New("a correctness check failed")
	}
	return nil
}

// printResult writes the result line: exactly correct, attempted, failed
// and metrics, each metric with its value and unit.
func printResult(w io.Writer, r record) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]metric{}}
	for name, v := range r.Metrics {
		line.Metrics[name] = metric{v.Value, v.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

func printReport(w io.Writer, defs []metricDef, vals map[string]value, o *outcome) {
	for _, d := range defs {
		v := vals[d.Name]
		note := ""
		if v.Note != "" {
			note = "; " + v.Note
		}
		fmt.Fprintf(w, "  %-32s %14.6g %-6s %s of %d%s\n", d.Name, v.Value, v.Unit, v.Stat, v.Samples, note)
	}
	status := "correct"
	if !o.checks.ok() {
		status = "INCORRECT:\n    " + strings.Join(o.checks.failures, "\n    ")
	}
	fmt.Fprintf(w, "  %d operations, %d failed, %s\n", o.attempted, o.failed, status)
}

func printSelfTimes(w io.Writer, sum traceSummary, path string) {
	fmt.Fprintf(w, "  self time by layer (trace in %s):", path)
	for _, l := range sortedNames(sum.SelfMs) {
		fmt.Fprintf(w, " %s %.0fms", l, sum.SelfMs[l])
	}
	fmt.Fprintf(w, "; children cover >= %.1f%% of each of %d repetitions\n", 100*sum.MinCoverage, sum.Roots)
}

func appendRecord(path string, r record) error {
	data, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encode record: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("open %s: %w", path, err)
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
