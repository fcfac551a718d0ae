// Command benchsuite regenerates the paper's evaluation (Section 5): every
// table and figure has a corresponding experiment that prints the same rows
// or series the paper reports, on seeded synthetic workloads.
//
// Usage:
//
//	benchsuite -exp table4 -n 20000
//	benchsuite -exp fig6 -threads 1,2,4,8
//	benchsuite -exp all
//
// Experiments: table2 table3 table4 table5 fig6 fig7 fig8 fig9 fig10
// memory pairs metrics serve daemon restart ingest overload all. See
// EXPERIMENTS.md for the mapping to the paper.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parclust"
	"parclust/internal/daemon"
	"parclust/internal/dendrogram"
	"parclust/internal/generator"
	"parclust/internal/geometry"
	"parclust/internal/kdtree"
	"parclust/internal/mst"
	"parclust/internal/wspd"
)

var (
	expFlag      = flag.String("exp", "all", "experiment to run (table2 table3 table4 table5 fig6 fig7 fig8 fig9 fig10 memory pairs metrics serve daemon restart ingest overload highdim all)")
	nFlag        = flag.Int("n", 10000, "points per dataset")
	minPtsFlag   = flag.Int("minpts", 10, "HDBSCAN* minPts")
	seedFlag     = flag.Int64("seed", 42, "generator seed")
	threadsFlag  = flag.String("threads", "", "comma-separated thread counts for scaling experiments (default: 1,...,NumCPU)")
	rhoFlag      = flag.Float64("rho", 0.125, "approximation parameter for fig10")
	pairBudget   = flag.Int("pairbudget", 20_000_000, "skip full-WSPD algorithms when the pair count exceeds this budget (mirrors the paper's '-' entries)")
	jsonFlag     = flag.String("json", "", "write a JSON run summary (per-experiment wall times and run metadata) to this file")
	benchfmtFlag = flag.String("benchfmt", "", "append Go benchmark-format result lines (benchstat input) to this file")
)

// jsonSummary is the machine-readable record of one benchsuite run, written
// by -json so CI can archive BENCH_*.json trajectories across commits.
type jsonSummary struct {
	N           int              `json:"n"`
	MinPts      int              `json:"minpts"`
	Seed        int64            `json:"seed"`
	NumCPU      int              `json:"numcpu"`
	GoVersion   string           `json:"go_version"`
	Threads     []int            `json:"threads"`
	Experiments []expTime        `json:"experiments"`
	Daemon      []daemonBenchRow `json:"daemon,omitempty"`
	Highdim     []highdimRow     `json:"highdim,omitempty"`
}

type expTime struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// daemonBenchRow is one (mode, clients) cell of the daemon experiment:
// throughput, tail latency, and the peak Go-heap footprint of the phase.
type daemonBenchRow struct {
	Mode     string  `json:"mode"`
	Clients  int     `json:"clients"`
	Queries  int64   `json:"queries"`
	QPS      float64 `json:"qps"`
	P50ms    float64 `json:"p50_ms"`
	P99ms    float64 `json:"p99_ms"`
	PeakHeap uint64  `json:"peak_heap_bytes"`
}

// highdimRow is one (op, dim, dtype) cell of the highdim experiment:
// the median-of-3 wall time and, for float32 rows, the speedup over the
// float64 median of the same cell.
type highdimRow struct {
	Op      string  `json:"op"` // coredist | hdbscan | knn
	Dim     int     `json:"dim"`
	Dtype   string  `json:"dtype"`
	MedianS float64 `json:"median_s"`
	Speedup float64 `json:"speedup,omitempty"`
}

// daemonRows / benchfmtLines / highdimRows collect per-study output for
// the -json summary and the -benchfmt series file.
var (
	daemonRows    []daemonBenchRow
	benchfmtLines []string
	highdimRows   []highdimRow
)

func main() {
	flag.Parse()
	threads := parseThreads(*threadsFlag)
	fmt.Printf("# parclust benchsuite: n=%d minPts=%d seed=%d NumCPU=%d\n",
		*nFlag, *minPtsFlag, *seedFlag, runtime.NumCPU())
	exps := strings.Split(*expFlag, ",")
	if *expFlag == "all" {
		exps = []string{"table3", "table4", "table5", "table2", "fig6", "fig7", "fig8", "fig9", "fig10", "memory", "pairs", "metrics", "serve", "daemon", "restart", "ingest", "overload", "highdim"}
	}
	summary := jsonSummary{
		N:         *nFlag,
		MinPts:    *minPtsFlag,
		Seed:      *seedFlag,
		NumCPU:    runtime.NumCPU(),
		GoVersion: runtime.Version(),
		Threads:   threads,
	}
	for _, e := range exps {
		name := strings.TrimSpace(e)
		start := time.Now()
		switch name {
		case "table2":
			table2(threads)
		case "table3":
			table3()
		case "table4":
			table4(threads)
		case "table5":
			table5(threads)
		case "fig6":
			fig6(threads)
		case "fig7":
			fig7(threads)
		case "fig8":
			fig8()
		case "fig9":
			fig9(threads)
		case "fig10":
			fig10(threads)
		case "memory":
			memoryStudy()
		case "pairs":
			pairStudy()
		case "metrics":
			metricStudy()
		case "serve":
			serveStudy()
		case "daemon":
			daemonStudy()
		case "restart":
			restartStudy()
		case "ingest":
			ingestStudy()
		case "overload":
			overloadStudy()
		case "highdim":
			highdimStudy()
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", e)
			os.Exit(2)
		}
		summary.Experiments = append(summary.Experiments, expTime{Name: name, Seconds: time.Since(start).Seconds()})
	}
	summary.Daemon = daemonRows
	summary.Highdim = highdimRows
	if *benchfmtFlag != "" && len(benchfmtLines) > 0 {
		f, err := os.OpenFile(*benchfmtFlag, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "open %s: %v\n", *benchfmtFlag, err)
			os.Exit(1)
		}
		for _, line := range benchfmtLines {
			fmt.Fprintln(f, line)
		}
		f.Close()
		fmt.Printf("# appended %d benchmark-format lines to %s\n", len(benchfmtLines), *benchfmtFlag)
	}
	if *jsonFlag != "" {
		buf, err := json.MarshalIndent(summary, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "marshal json summary: %v\n", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonFlag, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonFlag, err)
			os.Exit(1)
		}
		fmt.Printf("# wrote JSON summary to %s\n", *jsonFlag)
	}
}

func parseThreads(s string) []int {
	if s == "" {
		p := runtime.NumCPU()
		out := []int{1}
		for t := 2; t < p; t *= 2 {
			out = append(out, t)
		}
		if p > 1 {
			out = append(out, p)
		}
		return out
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			fmt.Fprintf(os.Stderr, "bad thread count %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func datasets() []generator.Dataset { return generator.PaperDatasets() }

func gen(d generator.Dataset) geometry.Points { return d.Gen(*nFlag, *seedFlag) }

// withThreads runs f under GOMAXPROCS=p and returns its wall-clock seconds.
func withThreads(p int, f func()) float64 {
	old := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(old)
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// wspdTooLarge reports whether materializing the full WSPD would exceed the
// pair budget (the paper marks such runs "-": out of memory / over 3h).
func wspdTooLarge(pts geometry.Points) bool {
	t := kdtree.Build(pts, 1)
	return wspd.Count(t, wspd.Geometric{S: 2}) > *pairBudget
}

func secs(v float64, ok bool) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.3f", v)
}

// ---------------------------------------------------------------- Table 3

func table3() {
	fmt.Println("\n## Table 3: sequential dual-tree-Boruvka-style EMST baseline (1 thread)")
	fmt.Println("dataset | boruvka_1t_s | memogfk_1t_s | memogfk_speedup_over_boruvka")
	for _, d := range datasets() {
		pts := gen(d)
		tb := withThreads(1, func() {
			emstReport(pts, parclust.EMSTBoruvka)
		})
		tm := withThreads(1, func() {
			if _, err := parclust.EMST(pts); err != nil {
				panic(err)
			}
		})
		fmt.Printf("%s | %.3f | %.3f | %.2fx\n", d.Name, tb, tm, tb/tm)
	}
}

// ---------------------------------------------------------------- Table 4

type emstRun struct {
	algo parclust.EMSTAlgorithm
	name string
}

var emstAlgos = []emstRun{
	{parclust.EMSTNaive, "EMST-Naive"},
	{parclust.EMSTGFK, "EMST-GFK"},
	{parclust.EMSTMemoGFK, "EMST-MemoGFK"},
	{parclust.EMSTDelaunay2D, "EMST-Delaunay"},
}

func runEMST(pts geometry.Points, algo parclust.EMSTAlgorithm, p int) (float64, bool) {
	if algo == parclust.EMSTDelaunay2D && pts.Dim != 2 {
		return 0, false
	}
	if (algo == parclust.EMSTNaive || algo == parclust.EMSTGFK) && wspdTooLarge(pts) {
		return 0, false
	}
	// A fresh Index inside the timed region measures the full one-shot
	// pipeline (tree build included) through the staged engine.
	t := withThreads(p, func() {
		idx, err := parclust.NewIndex(pts, nil)
		if err == nil {
			_, err = idx.EMSTWithAlgorithm(algo)
		}
		if err != nil {
			panic(err)
		}
	})
	return t, true
}

func table4(threads []int) {
	p := threads[len(threads)-1]
	fmt.Printf("\n## Table 4: EMST running times (seconds), 1 thread vs %d threads\n", p)
	fmt.Println("dataset | " + strings.Join(algoCols(emstAlgos, p), " | "))
	for _, d := range datasets() {
		pts := gen(d)
		row := []string{d.Name}
		for _, a := range emstAlgos {
			t1, ok1 := runEMST(pts, a.algo, 1)
			tp, okp := runEMST(pts, a.algo, p)
			row = append(row, secs(t1, ok1), secs(tp, okp))
		}
		fmt.Println(strings.Join(row, " | "))
	}
}

func algoCols(algos []emstRun, p int) []string {
	var cols []string
	for _, a := range algos {
		cols = append(cols, a.name+"_1t", fmt.Sprintf("%s_%dt", a.name, p))
	}
	return cols
}

// ---------------------------------------------------------------- Table 5

var hdbAlgos = []struct {
	algo parclust.HDBSCANAlgorithm
	name string
}{
	{parclust.HDBSCANMemoGFK, "HDBSCAN*-MemoGFK"},
	{parclust.HDBSCANGanTao, "HDBSCAN*-GanTao"},
}

func runHDBSCAN(pts geometry.Points, algo parclust.HDBSCANAlgorithm, p int) float64 {
	return withThreads(p, func() {
		idx, err := parclust.NewIndex(pts, nil)
		if err == nil {
			_, err = idx.HDBSCANWithAlgorithm(*minPtsFlag, algo)
		}
		if err != nil {
			panic(err)
		}
	})
}

func table5(threads []int) {
	p := threads[len(threads)-1]
	fmt.Printf("\n## Table 5: HDBSCAN* running times (seconds, minPts=%d, incl. dendrogram), 1 thread vs %d threads\n", *minPtsFlag, p)
	fmt.Printf("dataset | MemoGFK_1t | MemoGFK_%dt | GanTao_1t | GanTao_%dt\n", p, p)
	for _, d := range datasets() {
		pts := gen(d)
		fmt.Printf("%s | %.3f | %.3f | %.3f | %.3f\n", d.Name,
			runHDBSCAN(pts, parclust.HDBSCANMemoGFK, 1),
			runHDBSCAN(pts, parclust.HDBSCANMemoGFK, p),
			runHDBSCAN(pts, parclust.HDBSCANGanTao, 1),
			runHDBSCAN(pts, parclust.HDBSCANGanTao, p))
	}
}

// ---------------------------------------------------------------- Table 2

func table2(threads []int) {
	p := threads[len(threads)-1]
	fmt.Printf("\n## Table 2: speedup over best sequential and self-relative speedup (%d threads)\n", p)
	fmt.Println("method | speedup_over_best_seq (range, avg) | self_relative (range, avg)")
	type acc struct{ overBest, selfRel []float64 }
	accs := map[string]*acc{}
	order := []string{}
	add := func(name string, best, t1, tp float64, ok bool) {
		if !ok {
			return
		}
		a := accs[name]
		if a == nil {
			a = &acc{}
			accs[name] = a
			order = append(order, name)
		}
		a.overBest = append(a.overBest, best/tp)
		a.selfRel = append(a.selfRel, t1/tp)
	}
	for _, d := range datasets() {
		pts := gen(d)
		// Best sequential EMST = fastest 1-thread run among all algorithms.
		bestSeq := math.Inf(1)
		type res struct {
			t1, tp float64
			ok     bool
		}
		results := map[string]res{}
		for _, a := range emstAlgos {
			t1, ok1 := runEMST(pts, a.algo, 1)
			tp, okp := runEMST(pts, a.algo, p)
			results[a.name] = res{t1, tp, ok1 && okp}
			if ok1 && t1 < bestSeq {
				bestSeq = t1
			}
		}
		for _, a := range emstAlgos {
			r := results[a.name]
			add(a.name, bestSeq, r.t1, r.tp, r.ok)
		}
		// HDBSCAN*.
		bestSeqH := math.Inf(1)
		resultsH := map[string]res{}
		for _, a := range hdbAlgos {
			t1 := runHDBSCAN(pts, a.algo, 1)
			tp := runHDBSCAN(pts, a.algo, p)
			resultsH[a.name] = res{t1, tp, true}
			if t1 < bestSeqH {
				bestSeqH = t1
			}
		}
		for _, a := range hdbAlgos {
			r := resultsH[a.name]
			add(a.name, bestSeqH, r.t1, r.tp, r.ok)
		}
	}
	for _, name := range order {
		a := accs[name]
		fmt.Printf("%s | %.2f-%.2fx avg %.2fx | %.2f-%.2fx avg %.2fx\n", name,
			minOf(a.overBest), maxOf(a.overBest), avgOf(a.overBest),
			minOf(a.selfRel), maxOf(a.selfRel), avgOf(a.selfRel))
	}
}

func minOf(a []float64) float64 {
	v := math.Inf(1)
	for _, x := range a {
		v = math.Min(v, x)
	}
	return v
}
func maxOf(a []float64) float64 {
	v := math.Inf(-1)
	for _, x := range a {
		v = math.Max(v, x)
	}
	return v
}
func avgOf(a []float64) float64 {
	s := 0.0
	for _, x := range a {
		s += x
	}
	return s / float64(len(a))
}

// ---------------------------------------------------------------- Figures 6 & 7

func fig6(threads []int) {
	fmt.Println("\n## Figure 6: EMST speedup over best sequential vs thread count")
	fmt.Println("dataset | algorithm | " + threadCols(threads))
	for _, d := range datasets() {
		pts := gen(d)
		best := math.Inf(1)
		for _, a := range emstAlgos {
			if t1, ok := runEMST(pts, a.algo, 1); ok {
				best = math.Min(best, t1)
			}
		}
		for _, a := range emstAlgos {
			var cells []string
			usable := true
			for _, p := range threads {
				t, ok := runEMST(pts, a.algo, p)
				if !ok {
					usable = false
					break
				}
				cells = append(cells, fmt.Sprintf("%.2f", best/t))
			}
			if usable {
				fmt.Printf("%s | %s | %s\n", d.Name, a.name, strings.Join(cells, " | "))
			} else {
				fmt.Printf("%s | %s | -\n", d.Name, a.name)
			}
		}
	}
}

func fig7(threads []int) {
	fmt.Println("\n## Figure 7: HDBSCAN* speedup over best sequential vs thread count")
	fmt.Println("dataset | algorithm | " + threadCols(threads))
	for _, d := range datasets() {
		pts := gen(d)
		best := math.Inf(1)
		for _, a := range hdbAlgos {
			best = math.Min(best, runHDBSCAN(pts, a.algo, 1))
		}
		for _, a := range hdbAlgos {
			var cells []string
			for _, p := range threads {
				cells = append(cells, fmt.Sprintf("%.2f", best/runHDBSCAN(pts, a.algo, p)))
			}
			fmt.Printf("%s | %s | %s\n", d.Name, a.name, strings.Join(cells, " | "))
		}
	}
}

func threadCols(threads []int) string {
	var cols []string
	for _, p := range threads {
		cols = append(cols, fmt.Sprintf("%dT", p))
	}
	return strings.Join(cols, " | ")
}

// ---------------------------------------------------------------- Figure 8

func fig8() {
	fmt.Println("\n## Figure 8: per-phase time decomposition (all threads)")
	fmt.Println("dataset | method | phase=seconds ...")
	sel := []int{0, 4, 8, 9} // 2D-UniformFill, 2D-SS-varden, GeoLife-like, Household-like
	ds := datasets()
	for _, di := range sel {
		d := ds[di]
		pts := gen(d)
		for _, a := range emstAlgos {
			if a.algo == parclust.EMSTDelaunay2D && pts.Dim != 2 {
				continue
			}
			if (a.algo == parclust.EMSTNaive || a.algo == parclust.EMSTGFK) && wspdTooLarge(pts) {
				continue
			}
			fmt.Printf("%s | %s | %s\n", d.Name, a.name, phaseString(emstReport(pts, a.algo)))
		}
		for _, a := range hdbAlgos {
			idx, err := parclust.NewIndex(pts, nil)
			if err != nil {
				panic(err)
			}
			h, err := idx.HDBSCANWithAlgorithm(*minPtsFlag, a.algo)
			if err != nil {
				panic(err)
			}
			fmt.Printf("%s | %s | %s\n", d.Name, a.name, phaseString(h.BuildReport()))
		}
	}
}

// emstReport builds the MST of pts with algo on a fresh Index and returns
// the build's report.
func emstReport(pts parclust.Points, algo parclust.EMSTAlgorithm) parclust.Stats {
	idx, err := parclust.NewIndex(pts, nil)
	if err != nil {
		panic(err)
	}
	rep, err := idx.EMSTBuildReport(algo)
	if err != nil {
		panic(err)
	}
	return rep
}

// phaseString formats the phases a build ran, in pipeline order.
func phaseString(s parclust.Stats) string {
	var parts []string
	for p, d := range s.Phases {
		if d > 0 {
			parts = append(parts, fmt.Sprintf("%s=%.3f", parclust.Phase(p), d.Seconds()))
		}
	}
	return strings.Join(parts, " ")
}

// ---------------------------------------------------------------- Figure 9

func fig9(threads []int) {
	p := threads[len(threads)-1]
	fmt.Printf("\n## Figure 9: ordered dendrogram construction, self-relative speedup on %d threads\n", p)
	fmt.Println("dataset | variant | seq_s | par_1t_s | par_pt_s | self_relative_speedup")
	for _, d := range datasets() {
		pts := gen(d)
		emst, err := parclust.EMST(pts)
		if err != nil {
			panic(err)
		}
		h, err := parclust.HDBSCAN(pts, *minPtsFlag)
		if err != nil {
			panic(err)
		}
		for _, v := range []struct {
			name  string
			edges []parclust.Edge
		}{
			{"single-linkage", emst},
			{fmt.Sprintf("HDBSCAN*(minPts=%d)", *minPtsFlag), h.MST},
		} {
			edges := v.edges
			tseq := withThreads(1, func() { dendrogram.BuildSequential(pts.N, edges, 0) })
			t1 := withThreads(1, func() { dendrogram.BuildParallel(pts.N, edges, 0) })
			tp := withThreads(p, func() { dendrogram.BuildParallel(pts.N, edges, 0) })
			fmt.Printf("%s | %s | %.3f | %.3f | %.3f | %.2fx\n", d.Name, v.name, tseq, t1, tp, t1/tp)
		}
	}
}

// ---------------------------------------------------------------- Figure 10

func fig10(threads []int) {
	p := threads[len(threads)-1]
	fmt.Printf("\n## Figure 10: approximate OPTICS (rho=%.3f) vs exact HDBSCAN* (%d threads)\n", *rhoFlag, p)
	fmt.Println("dataset | MemoGFK_s | GanTao_s | ApproxOPTICS_s | approx/GanTao | approx/MemoGFK")
	ds := datasets()
	for _, di := range []int{9, 11} { // Household-like, CHEM-like
		d := ds[di]
		pts := gen(d)
		tm := runHDBSCAN(pts, parclust.HDBSCANMemoGFK, p)
		tg := runHDBSCAN(pts, parclust.HDBSCANGanTao, p)
		ta := withThreads(p, func() {
			if _, err := parclust.ApproxOPTICS(pts, *minPtsFlag, *rhoFlag); err != nil {
				panic(err)
			}
		})
		fmt.Printf("%s | %.3f | %.3f | %.3f | %.2fx | %.2fx\n", d.Name, tm, tg, ta, ta/tg, ta/tm)
	}
}

// ---------------------------------------------------------------- memory & pairs

func memoryStudy() {
	fmt.Println("\n## Memory study (Section 3.1.3 / 5): peak resident WSPD pairs, GFK vs MemoGFK")
	fmt.Println("dataset | gfk_peak_pairs | memogfk_peak_pairs | reduction")
	for _, d := range datasets() {
		pts := gen(d)
		if wspdTooLarge(pts) {
			fmt.Printf("%s | - | - | - (pair budget exceeded)\n", d.Name)
			continue
		}
		sf := emstReport(pts, parclust.EMSTGFK)
		sm := emstReport(pts, parclust.EMSTMemoGFK)
		red := float64(sf.PeakPairsResident) / math.Max(1, float64(sm.PeakPairsResident))
		fmt.Printf("%s | %d | %d | %.2fx\n", d.Name, sf.PeakPairsResident, sm.PeakPairsResident, red)
	}
}

// metricStudy times every EMST variant and the HDBSCAN* MemoGFK pipeline
// under every supported distance kernel — the metric x algorithm matrix.
// EMST-Delaunay is skipped off-L2; total weights are printed so runs can
// be eyeballed against the differential-test oracle expectations.
func metricStudy() {
	fmt.Println("\n## Metric x algorithm matrix: wall time (seconds) and total MST weight per kernel")
	fmt.Println("dataset | metric | algorithm | seconds | total_weight")
	ds := datasets()
	emstSel := []emstRun{
		{parclust.EMSTNaive, "EMST-Naive"},
		{parclust.EMSTGFK, "EMST-GFK"},
		{parclust.EMSTMemoGFK, "EMST-MemoGFK"},
		{parclust.EMSTWSPDBoruvka, "EMST-WSPDBoruvka"},
	}
	for _, di := range []int{0, 6} { // 2D-UniformFill, 5D-SS-varden
		d := ds[di]
		pts := gen(d)
		for _, m := range parclust.Metrics() {
			// A fresh throwaway Index inside every timed region keeps the
			// per-algorithm rows comparable (each pays its own tree build,
			// as the one-shot APIs always have); the Index amortization win
			// is measured by the dedicated serve experiment instead.
			for _, a := range emstSel {
				var edges []parclust.Edge
				secs := withThreads(runtime.NumCPU(), func() {
					idx, err := parclust.NewIndex(pts, &parclust.IndexOptions{Metric: m})
					if err == nil {
						edges, err = idx.EMSTWithAlgorithm(a.algo)
					}
					if err != nil {
						panic(err)
					}
				})
				fmt.Printf("%s | %v | %s | %.3f | %.4f\n", d.Name, m, a.name, secs, mst.TotalWeight(edges))
			}
			var h *parclust.Hierarchy
			secs := withThreads(runtime.NumCPU(), func() {
				idx, err := parclust.NewIndex(pts, &parclust.IndexOptions{Metric: m})
				if err == nil {
					h, err = idx.HDBSCAN(*minPtsFlag)
				}
				if err != nil {
					panic(err)
				}
			})
			fmt.Printf("%s | %v | HDBSCAN*-MemoGFK | %.3f | %.4f\n", d.Name, m, secs, h.TotalWeight())
		}
	}
}

// serveStudy measures query throughput on a fixed dataset under the two
// serving regimes the Index exists to separate: parameter sweeps (minPts x
// eps) answered by one shared Index versus calling the one-shot APIs in a
// loop, which rebuilds the tree and reruns the pipeline per query. The
// reported speedup pins the amortization win of the staged engine.
func serveStudy() {
	fmt.Println("\n## Serve: query throughput, shared Index vs one-shot loop (minPts x eps sweep)")
	pts := generator.SSVarden(*nFlag, 2, *seedFlag)
	minPtsList := []int{5, 10, 20}
	// Derive a meaningful eps ladder from the MST weight distribution.
	probe, err := parclust.HDBSCAN(pts, 10)
	if err != nil {
		panic(err)
	}
	ws := make([]float64, len(probe.MST))
	for i, e := range probe.MST {
		ws[i] = e.W
	}
	sort.Float64s(ws)
	quantile := func(q float64) float64 { return ws[int(q*float64(len(ws)-1))] }
	epsList := []float64{quantile(0.5), quantile(0.7), quantile(0.8), quantile(0.9), quantile(0.95)}
	queries := len(minPtsList) * len(epsList)

	tIndex := withThreads(runtime.NumCPU(), func() {
		idx, err := parclust.NewIndex(pts, nil)
		if err != nil {
			panic(err)
		}
		for _, mp := range minPtsList {
			h, err := idx.HDBSCAN(mp)
			if err != nil {
				panic(err)
			}
			for _, eps := range epsList {
				h.ClustersAt(eps)
				h.NumNoiseAt(eps)
			}
		}
		s := idx.Stats()
		fmt.Printf("index stage cache: tree %d built, core-dist %d, mst %d, dendrogram %d\n",
			s.TreeBuilds, s.CoreDistBuilds, s.MSTBuilds, s.DendrogramBuilds)
	})
	tOneShot := withThreads(runtime.NumCPU(), func() {
		for _, mp := range minPtsList {
			for _, eps := range epsList {
				h, err := parclust.HDBSCAN(pts, mp)
				if err != nil {
					panic(err)
				}
				h.ClustersAt(eps)
				h.NumNoiseAt(eps)
			}
		}
	})
	qpsIndex := float64(queries) / tIndex
	qpsOneShot := float64(queries) / tOneShot
	fmt.Printf("n=%d queries=%d (minPts %v x eps 5 cuts)\n", pts.N, queries, minPtsList)
	fmt.Printf("one-shot loop | %.3fs | %.2f queries/s\n", tOneShot, qpsOneShot)
	fmt.Printf("shared index  | %.3fs | %.2f queries/s\n", tIndex, qpsIndex)
	fmt.Printf("speedup       | %.2fx\n", qpsIndex/qpsOneShot)
}

// peakSampler tracks the peak Go heap during one bench phase by polling
// runtime.MemStats. HeapAlloc is the phase-comparable footprint proxy: OS
// RSS (VmHWM) is a process-lifetime high-water mark that never comes back
// down, so it cannot distinguish a lean phase from a fat one inside a
// single run. The absolute VmHWM is still printed once at the end of the
// study for operators who budget in RSS terms.
type peakSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

func startPeakSampler() *peakSampler {
	runtime.GC() // a clean baseline so the previous phase's garbage doesn't count
	s := &peakSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		var ms runtime.MemStats
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > s.peak.Load() {
					s.peak.Store(ms.HeapAlloc)
				}
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the observed peak heap in bytes.
func (s *peakSampler) Stop() uint64 {
	close(s.stop)
	<-s.done
	return s.peak.Load()
}

// percentile returns the q-quantile of sorted latency samples.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// vmHWM reads the process RSS high-water mark from /proc (0 off Linux).
func vmHWM() int64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, _ := strconv.ParseInt(fields[0], 10, 64)
				return kb << 10
			}
		}
	}
	return 0
}

// daemonStudy measures the serving layer end to end: an in-process
// parclustd handler hosts one warm dataset, and 1/4/16 concurrent HTTP
// clients sweep HDBSCAN* cuts against it for a fixed wall-clock window, in
// both response modes — buffered JSON documents and chunked NDJSON
// streams — with full label payloads. Every query rides the memoized
// stage pipeline (warm cuts are cut-cache hits), so the comparison
// isolates the serving layer: throughput, p50/p99 latency, and the peak
// Go heap of each phase. Buffered mode materializes every response before
// the first byte (json.Encoder builds the whole document), so its peak
// grows with clients x document size; streaming holds one chunk per
// in-flight request and should show a flatter peak at 16 clients.
//
// A second section batches a full minpts x eps grid into one POST /sweep
// request and compares it against the equivalent client-side query loop.
func daemonStudy() {
	fmt.Println("\n## Daemon: buffered vs streamed serving, 1/4/16 concurrent clients on one warm dataset")
	old := runtime.GOMAXPROCS(runtime.NumCPU())
	defer runtime.GOMAXPROCS(old)

	srv, err := daemon.New(daemon.Config{})
	if err != nil {
		panic(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Upload the dataset.
	pts := generator.SSVarden(*nFlag, 2, *seedFlag)
	rows := make([][]float64, pts.N)
	for i := 0; i < pts.N; i++ {
		rows[i] = pts.Data[i*pts.Dim : (i+1)*pts.Dim]
	}
	body, err := json.Marshal(map[string]any{"points": rows})
	if err != nil {
		panic(err)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/datasets/bench", bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := ts.Client().Do(req)
	if err != nil {
		panic(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		panic(fmt.Sprintf("upload: status %d", resp.StatusCode))
	}

	// Derive a meaningful eps ladder and warm every stage the sweep
	// touches (tree, core distances, MST, dendrogram, cut structure), so
	// the measured regime is the steady serving state.
	probe, err := parclust.HDBSCAN(pts, *minPtsFlag)
	if err != nil {
		panic(err)
	}
	ws := make([]float64, len(probe.MST))
	for i, e := range probe.MST {
		ws[i] = e.W
	}
	sort.Float64s(ws)
	quantile := func(q float64) float64 { return ws[int(q*float64(len(ws)-1))] }
	epsList := []float64{quantile(0.5), quantile(0.7), quantile(0.8), quantile(0.9), quantile(0.95)}
	paths := make([]string, len(epsList))
	for i, eps := range epsList {
		paths[i] = fmt.Sprintf("/v1/datasets/bench/hdbscan?minpts=%d&eps=%g", *minPtsFlag, eps)
	}
	warm := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	for _, p := range paths {
		r, err := warm.Get(ts.URL + p)
		if err != nil {
			panic(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			panic(fmt.Sprintf("warmup %s: status %d", p, r.StatusCode))
		}
	}

	const window = 1200 * time.Millisecond
	// runPhase hammers the eps ladder from `clients` concurrent keep-alive
	// connections for one wall-clock window, recording per-request latency
	// and the phase's peak heap.
	runPhase := func(mode string, clients int) daemonBenchRow {
		accept := ""
		if mode == "ndjson" {
			accept = "application/x-ndjson"
		}
		var failed atomic.Int64
		latCh := make(chan []time.Duration, clients)
		sampler := startPeakSampler()
		deadline := time.Now().Add(window)
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
				defer client.CloseIdleConnections()
				var lats []time.Duration
				for i := c; time.Now().Before(deadline); i++ {
					req, err := http.NewRequest(http.MethodGet, ts.URL+paths[i%len(paths)], nil)
					if err != nil {
						panic(err)
					}
					if accept != "" {
						req.Header.Set("Accept", accept)
					}
					t0 := time.Now()
					r, err := client.Do(req)
					if err != nil {
						failed.Add(1)
						continue
					}
					io.Copy(io.Discard, r.Body)
					r.Body.Close()
					if r.StatusCode != http.StatusOK {
						failed.Add(1)
						continue
					}
					lats = append(lats, time.Since(t0))
				}
				latCh <- lats
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		peak := sampler.Stop()
		close(latCh)
		var all []time.Duration
		for lats := range latCh {
			all = append(all, lats...)
		}
		if failed.Load() > 0 {
			panic(fmt.Sprintf("%d daemon bench queries failed", failed.Load()))
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		row := daemonBenchRow{
			Mode:     mode,
			Clients:  clients,
			Queries:  int64(len(all)),
			QPS:      float64(len(all)) / elapsed,
			P50ms:    percentile(all, 0.50).Seconds() * 1e3,
			P99ms:    percentile(all, 0.99).Seconds() * 1e3,
			PeakHeap: peak,
		}
		benchfmtLines = append(benchfmtLines, fmt.Sprintf(
			"BenchmarkDaemonQuery/mode=%s/clients=%d %d %.0f p50-ns/op %.0f p99-ns/op %d peak-heap-bytes",
			mode, clients, row.Queries, row.P50ms*1e6, row.P99ms*1e6, row.PeakHeap))
		return row
	}

	fmt.Printf("note: queries are CPU-bound, so the concurrency speedup is bounded by NumCPU=%d\n", runtime.NumCPU())
	fmt.Println("mode | clients | queries | agg_qps | p50_ms | p99_ms | peak_heap_MiB")
	for _, mode := range []string{"buffered", "ndjson"} {
		for _, clients := range []int{1, 4, 16} {
			row := runPhase(mode, clients)
			daemonRows = append(daemonRows, row)
			fmt.Printf("%s | %d | %d | %.1f | %.3f | %.3f | %.1f\n",
				row.Mode, row.Clients, row.Queries, row.QPS, row.P50ms, row.P99ms,
				float64(row.PeakHeap)/(1<<20))
		}
	}

	// Batched grid execution: one POST /sweep runs the whole minpts x eps
	// grid against the warm Index, vs the equivalent client-side loop of
	// per-cell /hdbscan requests (both read the same memoized stages, so
	// the difference is pure per-request overhead and payload count).
	sweepMinPts := []int{*minPtsFlag, *minPtsFlag + 5, *minPtsFlag + 10}
	sweepBody, err := json.Marshal(map[string]any{"minpts": sweepMinPts, "eps": epsList})
	if err != nil {
		panic(err)
	}
	doSweep := func() time.Duration {
		t0 := time.Now()
		r, err := warm.Post(ts.URL+"/v1/datasets/bench/sweep", "application/json", bytes.NewReader(sweepBody))
		if err != nil {
			panic(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			panic(fmt.Sprintf("sweep: status %d", r.StatusCode))
		}
		return time.Since(t0)
	}
	doLoop := func() time.Duration {
		t0 := time.Now()
		for _, mp := range sweepMinPts {
			for _, eps := range epsList {
				r, err := warm.Get(ts.URL + fmt.Sprintf("/v1/datasets/bench/hdbscan?minpts=%d&eps=%g&labels=false", mp, eps))
				if err != nil {
					panic(err)
				}
				io.Copy(io.Discard, r.Body)
				r.Body.Close()
				if r.StatusCode != http.StatusOK {
					panic(fmt.Sprintf("loop cell: status %d", r.StatusCode))
				}
			}
		}
		return time.Since(t0)
	}
	cells := len(sweepMinPts) * len(epsList)
	doSweep() // cold pass builds the two extra minPts stages and fills the cut caches
	sweepWarm, loopWarm := doSweep(), doLoop()
	fmt.Printf("\nbatched grid: %dx%d cells | sweep_warm %.3fms | loop_warm %.3fms (%d requests)\n",
		len(sweepMinPts), len(epsList), sweepWarm.Seconds()*1e3, loopWarm.Seconds()*1e3, cells)
	benchfmtLines = append(benchfmtLines,
		fmt.Sprintf("BenchmarkDaemonGrid/mode=sweep/cells=%d 1 %d ns/op", cells, sweepWarm.Nanoseconds()),
		fmt.Sprintf("BenchmarkDaemonGrid/mode=loop/cells=%d 1 %d ns/op", cells, loopWarm.Nanoseconds()))

	// The stage counters prove the whole run was served from one pipeline
	// build per minPts (plus any cold requests coalesced behind it), with
	// warm cuts answered from the cut-result cache.
	var stats struct {
		Datasets map[string]struct {
			Counters struct {
				TreeBuilds     int64 `json:"tree_builds"`
				MSTBuilds      int64 `json:"mst_builds"`
				DendrogramHits int64 `json:"dendrogram_hits"`
				CutBuilds      int64 `json:"cut_builds"`
				CutHits        int64 `json:"cut_hits"`
				CoalescedTotal int64 `json:"coalesced_total"`
			} `json:"counters"`
		} `json:"datasets"`
	}
	r, err := warm.Get(ts.URL + "/v1/stats")
	if err != nil {
		panic(err)
	}
	if err := json.NewDecoder(r.Body).Decode(&stats); err != nil {
		panic(err)
	}
	r.Body.Close()
	c := stats.Datasets["bench"].Counters
	fmt.Printf("stage counters: tree_builds=%d mst_builds=%d dendrogram_hits=%d cut_builds=%d cut_hits=%d coalesced=%d\n",
		c.TreeBuilds, c.MSTBuilds, c.DendrogramHits, c.CutBuilds, c.CutHits, c.CoalescedTotal)
	if hwm := vmHWM(); hwm > 0 {
		fmt.Printf("process VmHWM (lifetime RSS high-water): %.1f MiB\n", float64(hwm)/(1<<20))
	}
}

// overloadStudy drives 64 concurrent clients into a deliberately
// capacity-limited daemon — 2 cold-build slots, a per-tenant rate limit,
// and a query deadline — and reports how the admission layer holds up:
// served vs shed (by cause) with the p50/p99 of the served requests. One
// dataset is pre-warmed (its fixed query is a cut-cache hit); the rest are
// cold, and clients keep rotating minPts so cold builds keep arriving
// faster than the gate admits them. The run ends with a goroutine settle
// check: shedding 429/503/504 under saturation must leak nothing.
func overloadStudy() {
	fmt.Println("\n## Overload: 64 clients vs a capacity-limited daemon (2 cold-build slots, per-tenant rate limit, query deadline)")
	srv, err := daemon.New(daemon.Config{
		MaxColdBuilds: 2,
		QueryTimeout:  2 * time.Second,
		RateQPS:       200,
		RateBurst:     20,
	})
	if err != nil {
		panic(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	n := *nFlag
	if n > 4000 {
		n = 4000 // overload measures the admission layer, not pipeline scale
	}
	const numDatasets = 8
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	for i := 0; i < numDatasets; i++ {
		pts := generator.SSVarden(n, 2, *seedFlag+int64(i))
		rows := make([][]float64, pts.N)
		for j := 0; j < pts.N; j++ {
			rows[j] = pts.Data[j*pts.Dim : (j+1)*pts.Dim]
		}
		body, err := json.Marshal(map[string]any{"points": rows})
		if err != nil {
			panic(err)
		}
		req, err := http.NewRequest(http.MethodPut, fmt.Sprintf("%s/v1/datasets/ov%d", ts.URL, i), bytes.NewReader(body))
		if err != nil {
			panic(err)
		}
		req.Header.Set("Content-Type", "application/json")
		r, err := client.Do(req)
		if err != nil {
			panic(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusCreated {
			panic(fmt.Sprintf("upload ov%d: status %d", i, r.StatusCode))
		}
	}
	// Pre-warm ov0 so the fixed warm query is a pure cut-cache hit.
	warmPath := fmt.Sprintf("/v1/datasets/ov0/hdbscan?minpts=%d&eps=0.5&labels=false", *minPtsFlag)
	r, err := client.Get(ts.URL + warmPath)
	if err != nil {
		panic(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		panic(fmt.Sprintf("warmup: status %d", r.StatusCode))
	}
	client.CloseIdleConnections()
	time.Sleep(100 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	const clients = 64
	window := 1500 * time.Millisecond
	var served, shed429, shed503, shed504, failed atomic.Int64
	latCh := make(chan []time.Duration, clients)
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
			defer cl.CloseIdleConnections()
			var lats []time.Duration
			for i := 0; time.Now().Before(deadline); i++ {
				// Even clients hammer the warm cut; odd clients rotate
				// minPts across the cold datasets, demanding fresh builds.
				path := warmPath
				if c%2 == 1 {
					path = fmt.Sprintf("/v1/datasets/ov%d/hdbscan?minpts=%d&eps=0.5&labels=false",
						1+(c/2+i)%(numDatasets-1), *minPtsFlag+i%5)
				}
				req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
				if err != nil {
					panic(err)
				}
				req.Header.Set("X-Tenant", fmt.Sprintf("t%d", c%8))
				t0 := time.Now()
				resp, err := cl.Do(req)
				if err != nil {
					failed.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					served.Add(1)
					lats = append(lats, time.Since(t0))
				case http.StatusTooManyRequests:
					shed429.Add(1)
					time.Sleep(5 * time.Millisecond) // honor the backoff
				case http.StatusServiceUnavailable:
					shed503.Add(1)
					time.Sleep(5 * time.Millisecond)
				case http.StatusGatewayTimeout:
					shed504.Add(1)
				default:
					failed.Add(1)
				}
			}
			latCh <- lats
		}(c)
	}
	wg.Wait()
	close(latCh)
	var all []time.Duration
	for lats := range latCh {
		all = append(all, lats...)
	}
	if failed.Load() > 0 {
		panic(fmt.Sprintf("%d overload queries failed outright (not shed)", failed.Load()))
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p50 := percentile(all, 0.50).Seconds() * 1e3
	p99 := percentile(all, 0.99).Seconds() * 1e3
	fmt.Println("clients | served | shed_429 | shed_503 | shed_504 | p50_ms | p99_ms")
	fmt.Printf("%d | %d | %d | %d | %d | %.3f | %.3f\n",
		clients, served.Load(), shed429.Load(), shed503.Load(), shed504.Load(), p50, p99)
	benchfmtLines = append(benchfmtLines, fmt.Sprintf(
		"BenchmarkDaemonOverload/clients=%d %d %.0f p50-ns/op %.0f p99-ns/op %d shed",
		clients, served.Load(), p50*1e6, p99*1e6,
		shed429.Load()+shed503.Load()+shed504.Load()))

	// Goroutine settle check: after the storm, everything the admission
	// layer spawned (flight watchers, timers, handlers) must be gone.
	client.CloseIdleConnections()
	settleDeadline := time.Now().Add(15 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= baseline+3 {
			fmt.Printf("goroutine settle: baseline=%d settled=%d (no leak)\n", baseline, now)
			break
		}
		if time.Now().After(settleDeadline) {
			panic(fmt.Sprintf("goroutine leak after overload: baseline=%d now=%d", baseline, now))
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// restartStudy measures what the persistent stage store buys across a
// daemon restart: building the full pipeline from raw points (cold) vs
// writing the warm snapshot once vs reloading it and answering the first
// query. The reload path must produce identical labels with zero stage
// rebuilds — the speedup column is exactly the warm-restart win.
func restartStudy() {
	fmt.Println("\n## Restart: snapshot load vs cold stage rebuild (tree + core + MST + dendrogram)")
	fmt.Println("n | cold_build_ms | snap_write_ms | snap_MiB | snap_load_ms | load_speedup")
	for _, n := range []int{10_000, 100_000} {
		pts := generator.SSVarden(n, 2, *seedFlag)
		minPts := *minPtsFlag

		coldStart := time.Now()
		ix, err := parclust.NewIndex(pts, nil)
		if err != nil {
			panic(err)
		}
		hier, err := ix.HDBSCAN(minPts)
		if err != nil {
			panic(err)
		}
		if _, err := ix.EMST(); err != nil {
			panic(err)
		}
		want := hier.ExtractStableClusters(minPts)
		cold := time.Since(coldStart)

		var snap bytes.Buffer
		writeStart := time.Now()
		if err := ix.WriteSnapshot(&snap); err != nil {
			panic(err)
		}
		write := time.Since(writeStart)

		loadStart := time.Now()
		back, err := parclust.ReadSnapshot(bytes.NewReader(snap.Bytes()))
		if err != nil {
			panic(err)
		}
		hier2, err := back.HDBSCAN(minPts)
		if err != nil {
			panic(err)
		}
		got := hier2.ExtractStableClusters(minPts)
		load := time.Since(loadStart)

		// The reload is only a win if it is also correct: identical labels,
		// nothing rebuilt.
		if got.NumClusters != want.NumClusters {
			panic(fmt.Sprintf("restart n=%d: %d clusters after reload, want %d", n, got.NumClusters, want.NumClusters))
		}
		for i := range want.Labels {
			if got.Labels[i] != want.Labels[i] {
				panic(fmt.Sprintf("restart n=%d: label %d differs after reload", n, i))
			}
		}
		if s := back.Stats(); s.TreeBuilds+s.CoreDistBuilds+s.MSTBuilds+s.DendrogramBuilds != 0 {
			panic(fmt.Sprintf("restart n=%d: reload rebuilt stages: %+v", n, s))
		}

		fmt.Printf("%d | %.1f | %.1f | %.1f | %.1f | %.1fx\n",
			n, cold.Seconds()*1e3, write.Seconds()*1e3,
			float64(snap.Len())/(1<<20), load.Seconds()*1e3,
			cold.Seconds()/load.Seconds())
		benchfmtLines = append(benchfmtLines,
			fmt.Sprintf("BenchmarkRestart/phase=cold-build/n=%d 1 %d ns/op", n, cold.Nanoseconds()),
			fmt.Sprintf("BenchmarkRestart/phase=snapshot-write/n=%d 1 %d ns/op %d snapshot-bytes", n, write.Nanoseconds(), snap.Len()),
			fmt.Sprintf("BenchmarkRestart/phase=snapshot-load/n=%d 1 %d ns/op", n, load.Nanoseconds()))
	}
}

func pairStudy() {
	fmt.Println("\n## WSPD pair counts (Section 3.2.2): geometric vs new disjunctive separation")
	fmt.Println("dataset | geometric_pairs | mutual_pairs | reduction")
	for _, d := range datasets() {
		pts := gen(d)
		t := kdtree.Build(pts, 1)
		cd := t.CoreDistances(*minPtsFlag)
		t.AnnotateCoreDists(cd)
		geo := wspd.Count(t, wspd.Geometric{S: 2})
		mu := wspd.Count(t, wspd.MutualUnreachable{})
		fmt.Printf("%s | %d | %d | %.2fx\n", d.Name, geo, mu, float64(geo)/math.Max(1, float64(mu)))
	}
}

// ---------------------------------------------------------------- Highdim

// highdimMedian returns the median of a small sample (destructively sorts).
func highdimMedian(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// mstWeight sums the edge weights of an MST.
func mstWeight(edges []parclust.Edge) float64 {
	var s float64
	for _, e := range edges {
		s += e.W
	}
	return s
}

// highdimStudy measures the float32 SoA leaf-scan fast path against the
// float64 default on unit-sphere embedding workloads at dim 16 and 128:
// core-distance construction (kd-tree build + all-points kNN), end-to-end
// HDBSCAN* on a fresh Index (tree + core + MST + dendrogram), and warm
// per-query kNN. Each cell is the median of 3 fresh Index builds; every
// rep also lands in the -benchfmt series so benchstat computes its own
// medians. The float32 rows additionally report the relative MST-weight
// divergence from the float64 run — the precision cost of the speedup.
func highdimStudy() {
	fmt.Println("\n## Highdim: float32 SoA kernels vs float64 (embed workload, L2)")
	fmt.Printf("dim | dtype | coredist_ms | hdbscan_ms | knn_us/q | coredist_speedup | hdbscan_speedup | knn_speedup | mst_rel_err\n")
	const reps = 3
	for _, dim := range []int{16, 128} {
		pts := generator.Embed(*nFlag, dim, 16, *seedFlag)
		nq := *nFlag
		if nq > 2000 {
			nq = 2000
		}
		base := map[string]float64{} // float64 medians, keyed by op
		var baseMST float64
		for _, dtype := range []string{"float64", "float32"} {
			var coreS, hdbS, knnS []float64 // seconds (knn: per query)
			var mstW float64
			for rep := 0; rep < reps; rep++ {
				idx, err := parclust.NewIndex(pts, &parclust.IndexOptions{Float32: dtype == "float32"})
				if err != nil {
					panic(err)
				}
				start := time.Now()
				if _, err := idx.CoreDistances(*minPtsFlag); err != nil {
					panic(err)
				}
				core := time.Since(start)

				// End-to-end on a second fresh Index so the timed region is
				// the whole pipeline (tree + core + MST + dendrogram), not
				// just the stages left unmemoized by the core-distance run.
				idx2, err := parclust.NewIndex(pts, &parclust.IndexOptions{Float32: dtype == "float32"})
				if err != nil {
					panic(err)
				}
				start = time.Now()
				h, err := idx2.HDBSCAN(*minPtsFlag)
				if err != nil {
					panic(err)
				}
				hdb := time.Since(start)
				mstW = mstWeight(h.MST)

				start = time.Now()
				for q := 0; q < nq; q++ {
					if _, err := idx.KNN(int32(q), 10); err != nil {
						panic(err)
					}
				}
				knn := time.Since(start)

				coreS = append(coreS, core.Seconds())
				hdbS = append(hdbS, hdb.Seconds())
				knnS = append(knnS, knn.Seconds()/float64(nq))
				benchfmtLines = append(benchfmtLines,
					fmt.Sprintf("BenchmarkHighdim/op=coredist/dim=%d/dtype=%s 1 %d ns/op", dim, dtype, core.Nanoseconds()),
					fmt.Sprintf("BenchmarkHighdim/op=hdbscan/dim=%d/dtype=%s 1 %d ns/op", dim, dtype, hdb.Nanoseconds()),
					fmt.Sprintf("BenchmarkHighdim/op=knn/dim=%d/dtype=%s %d %d ns/op", dim, dtype, nq, knn.Nanoseconds()/int64(nq)))
			}
			med := map[string]float64{
				"coredist": highdimMedian(coreS),
				"hdbscan":  highdimMedian(hdbS),
				"knn":      highdimMedian(knnS),
			}
			speed := func(op string) float64 {
				if dtype == "float64" {
					return 0
				}
				return base[op] / med[op]
			}
			for _, op := range []string{"coredist", "hdbscan", "knn"} {
				highdimRows = append(highdimRows, highdimRow{
					Op: op, Dim: dim, Dtype: dtype, MedianS: med[op], Speedup: speed(op),
				})
			}
			if dtype == "float64" {
				base = med
				baseMST = mstW
				fmt.Printf("%d | %s | %.1f | %.1f | %.1f | - | - | - | -\n",
					dim, dtype, med["coredist"]*1e3, med["hdbscan"]*1e3, med["knn"]*1e6)
			} else {
				relErr := math.Abs(mstW-baseMST) / math.Max(baseMST, 1e-300)
				fmt.Printf("%d | %s | %.1f | %.1f | %.1f | %.2fx | %.2fx | %.2fx | %.2e\n",
					dim, dtype, med["coredist"]*1e3, med["hdbscan"]*1e3, med["knn"]*1e6,
					speed("coredist"), speed("hdbscan"), speed("knn"), relErr)
			}
		}
	}
}

// ---------------------------------------------------------------- Ingest

// ingestStudy measures the incremental-update contract: absorbing a stream
// of insert batches through Index.Insert (overlay + amortized compaction)
// versus rebuilding a fresh Index per batch, with one warm k-NN query after
// every batch in both modes so each must serve queries over the full set it
// has absorbed. The amortized per-insert cost of the incremental mode must
// be at least 10x cheaper than rebuild-per-batch at n >= 10k — the
// rebuild-amortization acceptance bar — or the study panics.
func ingestStudy() {
	fmt.Println("\n## Ingest: incremental Insert vs rebuild-per-batch (amortized per-insert cost)")
	fmt.Println("n | batches | batch_rows | incremental_us_per_insert | rebuild_us_per_insert | speedup")
	for _, n := range []int{10_000, 100_000} {
		base := generator.SSVarden(n, 2, *seedFlag)
		const batches = 50
		batchRows := n / 100
		stream := generator.SSVarden(batches*batchRows, 2, *seedFlag+1)
		batch := func(i int) parclust.Points {
			lo := i * batchRows * stream.Dim
			hi := (i + 1) * batchRows * stream.Dim
			return parclust.Points{Data: stream.Data[lo:hi], N: batchRows, Dim: stream.Dim}
		}
		totalInserts := batches * batchRows

		// Incremental: one live Index absorbs every batch; the final
		// Compact is charged to this mode so the timing covers the whole
		// amortization cycle, not just the cheap overlay appends.
		incIdx, err := parclust.NewIndex(base, nil)
		if err != nil {
			panic(err)
		}
		if _, err := incIdx.KNN(0, 8); err != nil { // build the base tree outside the timed loop, as rebuild mode gets base for free too
			panic(err)
		}
		incStart := time.Now()
		for i := 0; i < batches; i++ {
			if _, err := incIdx.Insert(batch(i)); err != nil {
				panic(err)
			}
			if _, err := incIdx.KNN(0, 8); err != nil {
				panic(err)
			}
		}
		if err := incIdx.Compact(); err != nil {
			panic(err)
		}
		inc := time.Since(incStart)

		// Rebuild-per-batch: the only way to "insert" without the dynamic
		// layer — append rows and build a fresh Index every batch.
		all := append([]float64(nil), base.Data...)
		var reb time.Duration
		for i := 0; i < batches; i++ {
			b := batch(i)
			start := time.Now()
			all = append(all, b.Data...)
			rebIdx, err := parclust.NewIndex(parclust.Points{Data: all, N: len(all) / 2, Dim: 2}, nil)
			if err != nil {
				panic(err)
			}
			if _, err := rebIdx.KNN(0, 8); err != nil {
				panic(err)
			}
			reb += time.Since(start)
		}

		incPer := inc.Nanoseconds() / int64(totalInserts)
		rebPer := reb.Nanoseconds() / int64(totalInserts)
		speedup := float64(rebPer) / float64(incPer)
		fmt.Printf("%d | %d | %d | %.1f | %.1f | %.1fx\n",
			n, batches, batchRows, float64(incPer)/1e3, float64(rebPer)/1e3, speedup)
		benchfmtLines = append(benchfmtLines,
			fmt.Sprintf("BenchmarkIngest/mode=incremental/n=%d 1 %d ns/op", n, incPer),
			fmt.Sprintf("BenchmarkIngest/mode=rebuild/n=%d 1 %d ns/op", n, rebPer))
		if n >= 100_000 && speedup < 10 {
			panic(fmt.Sprintf("ingest n=%d: incremental per-insert only %.1fx cheaper than rebuild-per-batch, want >= 10x", n, speedup))
		}

		// The speed means nothing if the absorbed stream is wrong: the
		// compacted Index must match a fresh build over base+stream.
		wantIdx, err := parclust.NewIndex(parclust.Points{Data: all, N: len(all) / 2, Dim: 2}, nil)
		if err != nil {
			panic(err)
		}
		got, err := incIdx.KNN(0, 8)
		if err != nil {
			panic(err)
		}
		want, err := wantIdx.KNN(0, 8)
		if err != nil {
			panic(err)
		}
		for i := range want {
			if got[i] != want[i] {
				panic(fmt.Sprintf("ingest n=%d: KNN diverges from fresh build after stream", n))
			}
		}
	}
}
