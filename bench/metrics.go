package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported number and its unit, as BENCHMARK.json
// lists it.
type metricDef struct{ Name, Unit string }

// endToEnd lists what an untraced run reports, for every workload. What
// each name measures on each workload is tabulated in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cluster_ms", "ms"},
	{"cut_ms", "ms"},
	{"emst_ms", "ms"},
	{"knn_ms", "ms"},
	{"peak_mem_mb", "MiB"},
}

// perLayer lists what a traced run reports, for every workload.
var perLayer = []metricDef{
	{"kdtree.build_s", "s"},
	{"kdtree.coredist_s", "s"},
	{"kdtree.knn_us", "us"},
	{"wspd.pairs_geometric", "count"},
	{"wspd.pairs_mutual", "count"},
	{"mst.hdbscan.s", "s"},
	{"mst.hdbscan.bccp_calls", "count"},
	{"mst.hdbscan.pairs_materialized", "count"},
	{"mst.hdbscan.peak_pairs_resident", "count"},
	{"mst.hdbscan.rounds", "count"},
	{"mst.emst.s", "s"},
	{"mst.emst.bccp_calls", "count"},
	{"mst.emst.pairs_materialized", "count"},
	{"mst.emst.peak_pairs_resident", "count"},
	{"mst.emst.rounds", "count"},
	{"dendrogram.build_s", "s"},
	{"dendrogram.cutter_s", "s"},
	{"dendrogram.cut_ms", "ms"},
	{"metric.dist32_ns", "ns"},
	{"metric.dist64_ns", "ns"},
	{"parallel.cpu_util", "ratio"},
	{"engine.self_s", "s"},
	{"engine.tree_builds", "count"},
	{"engine.compactions", "count"},
	{"engine.tree_patches", "count"},
	{"engine.mst_builds", "count"},
	{"engine.cut_hit_ratio", "ratio"},
	{"daemon.cut_labels_p50_ms", "ms"},
	{"daemon.cut_ndjson_p50_ms", "ms"},
	{"daemon.cut_nolabels_p50_ms", "ms"},
	{"daemon.knn_p50_ms", "ms"},
	{"daemon.range_p50_ms", "ms"},
	{"daemon.emst_p50_ms", "ms"},
	{"daemon.insert_p50_ms", "ms"},
	{"daemon.delete_p50_ms", "ms"},
	{"daemon.resp_kb_per_req", "KiB"},
	{"daemon.server_cpu_us_per_req", "us"},
	{"daemon.overhead_ms", "ms"},
	{"registry.approx_mb", "MiB"},
	{"bench.requests", "count"},
	{"bench.late_sends", "count"},
	{"bench.root_coverage", "ratio"},
	{"bench.trace_overhead_pct", "%"},
}

// exactCounter reports whether a metric is a work counter that must repeat
// exactly across runs of one seed. The bench.* counts depend on how much
// fits into the timed window, so they are not exact.
func exactCounter(d metricDef) bool {
	return d.Unit == "count" && !strings.HasPrefix(d.Name, "bench.")
}

// value is one reported metric: the number, its unit, how many samples and
// which statistic produced it, and a note for the report: whether the
// samples leave out steal, and for a latency the tail of its samples.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Stat    string  `json:"stat,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// outcome accumulates one workload run: raw samples, finished values, the
// operation tally and failed correctness checks.
type outcome struct {
	samples   map[string][]float64
	values    map[string]value
	attempted int
	failed    int
	checks    checker
}

func newOutcome() *outcome {
	return &outcome{samples: map[string][]float64{}, values: map[string]value{}}
}

// op tallies one timed operation; err (or a non-nil failure) marks it
// failed.
func (o *outcome) op(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if o.failed <= 5 {
			o.checks.failf("operation failed: %v", err)
		}
	}
}

// window runs fn, the measured part of a run, and reports the share of the
// VM's CPU time lost meanwhile to steal: time the hypervisor gave to other
// guests, which the guest kernel counts in /proc/stat. It stays under 1%
// on a quiet host. The long operations' samples leave it out (lessSteal),
// and a window that lost much is not measured again, so that a run takes
// the same time whatever the host does.
func window(e *env, fn func() error) error {
	s0, err := stealTime()
	if err != nil {
		return err
	}
	start := time.Now()
	if err := fn(); err != nil {
		return err
	}
	s1, err := stealTime()
	if err != nil {
		return err
	}
	share := float64(s1-s0) / float64(time.Since(start)*time.Duration(runtime.NumCPU()))
	fmt.Fprintf(e.log, "  the window lost %.1f%% of CPU time to steal\n", 100*share)
	return nil
}

// sample appends a raw sample to a named series.
func (o *outcome) sample(name string, v float64) { o.samples[name] = append(o.samples[name], v) }

// set records a finished value; the unit comes from the metric tables.
func (o *outcome) set(name string, v float64, samples int, stat string) {
	o.values[name] = value{Value: v, Samples: samples, Stat: stat}
}

// groups returns the sample series recorded under name. A workload that
// cycles through a corpus of inputs records one series per input, named
// "name/<input>"; any other records just name.
func (o *outcome) groups(name string) [][]float64 {
	if xs, ok := o.samples[name]; ok {
		return [][]float64{xs}
	}
	var gs [][]float64
	for _, k := range sortedNames(o.samples) {
		if strings.HasPrefix(k, name+"/") {
			gs = append(gs, o.samples[k])
		}
	}
	return gs
}

// stat computes a statistic of a sample series and returns it with the
// number of samples and a label naming it. f computes the statistic from
// sorted samples and returns the percentile it reports (50 for the
// median). Over a corpus the value is the mean, over the inputs, of each
// input's statistic. The inputs' costs differ widely, so a statistic of
// their pooled samples would jump from one input's samples to another's as
// the number of repetitions of each changed.
func (o *outcome) stat(series string, f func(sorted []float64) (p, v float64)) (v float64, n int, label string) {
	gs := o.groups(series)
	sum, pct := 0.0, math.Inf(1)
	for _, g := range gs {
		p, v := f(sortedCopy(g))
		sum, n, pct = sum+v, n+len(g), min(pct, p)
	}
	label = fmt.Sprintf("p%g", pct)
	if pct == 50 {
		label = "median"
	}
	if len(gs) > 1 {
		label = fmt.Sprintf("mean over %d inputs of the %s", len(gs), label)
	}
	return sum / float64(len(gs)), n, label
}

// setMedian records the median of a sample series under name.
func (o *outcome) setMedian(name, series string) {
	v, n, label := o.stat(series, func(s []float64) (float64, float64) { return 50, median(s) })
	o.set(name, v, n, label)
}

// report selects the metrics a run prints: defs, each with its unit. A
// missing or non-finite value is an error, since the printed result must
// carry every metric the benchmark defines.
func (o *outcome) report(defs []metricDef) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := o.values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v.Value)
		}
		v.Unit = d.Unit
		out[d.Name] = v
	}
	return out, nil
}

// setEndToEnd turns the series every workload fills into its end-to-end
// metrics: medians, and for each latency its tail beside it in the report.
// The tails are not metrics. On the 2-vCPU VM the benchmark was sized on,
// they tracked the host's steal time rather than parclust: over ten seeds,
// the p95 of serve-warm's k-NN latencies ran from 0.37 ms in runs that lost
// at most 1% of the CPU time to steal to 9.4 ms in one that lost 26%, while
// the median stayed within 0.28-0.35 ms.
//
// The samples of setup_s, cluster_ms and emst_ms leave out the steal each
// operation waited through (see lessSteal), and their report says so.
func setEndToEnd(out *outcome) {
	for _, m := range []struct {
		name, series string
		stealFree    bool
	}{
		{"setup_s", "setup", true}, {"cluster_ms", "cluster", true}, {"cut_ms", "cut", false},
		{"emst_ms", "emst", true}, {"knn_ms", "knn", false},
	} {
		out.setMedian(m.name, m.series)
		v := out.values[m.name]
		var notes []string
		if m.stealFree {
			notes = append(notes, "less steal")
		}
		if m.name != "setup_s" {
			p, _, label := out.stat(m.series, tail)
			notes = append(notes, fmt.Sprintf("%s %.4g", label, p))
		}
		v.Note = strings.Join(notes, "; ")
		out.values[m.name] = v
	}
	out.setMedian("peak_mem_mb", "mem")
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sortedNames returns the keys of m in order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
