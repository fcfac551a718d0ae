// Command emst computes a Euclidean minimum spanning tree of a point set
// loaded from CSV (or generated synthetically) and reports the tree weight,
// timing, and optional per-phase decomposition.
//
// Usage:
//
//	emst -input points.csv -algo memogfk
//	emst -gen varden -n 100000 -dim 3 -algo memogfk -phases
//	emst -gen uniform -n 50000 -dim 2 -algo delaunay2d -out tree.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"parclust"
	"parclust/internal/dataio"
	"parclust/internal/mst"
)

func main() {
	var (
		input   = flag.String("input", "", "CSV file of points (one point per line)")
		genKind = flag.String("gen", "uniform", "synthetic generator when -input is empty: uniform | varden | mixture")
		n       = flag.Int("n", 100000, "number of generated points")
		dim     = flag.Int("dim", 2, "dimension of generated points")
		seed    = flag.Int64("seed", 42, "generator seed")
		algo    = flag.String("algo", "memogfk", "algorithm: memogfk | gfk | naive | boruvka | delaunay2d | wspdboruvka")
		metricF = flag.String("metric", "l2", "distance kernel: l2 | sql2 | l1 | linf | angular (delaunay2d is l2-only)")
		out     = flag.String("out", "", "write MST edges (u,v,w per line) to this file")
		phases  = flag.Bool("phases", false, "print the MST's build report: the time of each phase that ran, in pipeline order, and the work counters")
		threads = flag.Int("threads", 0, "GOMAXPROCS override (0 = all cores)")
	)
	flag.Parse()
	if *threads > 0 {
		runtime.GOMAXPROCS(*threads)
	}
	pts, err := dataio.LoadOrGenerate(*input, *genKind, *n, *dim, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "emst:", err)
		os.Exit(1)
	}
	a, err := parclust.ParseEMSTAlgorithm(*algo)
	if err != nil {
		fmt.Fprintln(os.Stderr, "emst:", err)
		os.Exit(2)
	}
	m, err := parclust.ParseMetric(*metricF)
	if err != nil {
		fmt.Fprintln(os.Stderr, "emst:", err)
		os.Exit(2)
	}
	start := time.Now()
	idx, err := parclust.NewIndex(pts, &parclust.IndexOptions{Metric: m})
	var edges []parclust.Edge
	if err == nil {
		edges, err = idx.EMSTWithAlgorithm(a)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "emst:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	fmt.Printf("algorithm=%v metric=%v n=%d dim=%d threads=%d\n", a, m, pts.N, pts.Dim, runtime.GOMAXPROCS(0))
	fmt.Printf("edges=%d total_weight=%.6f time=%.3fs\n", len(edges), mst.TotalWeight(edges), elapsed.Seconds())
	if *phases {
		// The MST is memoized, so this reads the report of the build above.
		rep, _ := idx.EMSTBuildReport(a)
		for p, d := range rep.Phases {
			if d > 0 {
				fmt.Printf("phase %-12s %.3fs\n", parclust.Phase(p), d.Seconds())
			}
		}
		fmt.Printf("pairs_materialized=%d peak_resident=%d bccp=%d rounds=%d\n",
			rep.PairsMaterialized, rep.PeakPairsResident, rep.BCCPComputed, rep.Rounds)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "emst:", err)
			os.Exit(1)
		}
		w := bufio.NewWriter(f)
		for _, e := range edges {
			fmt.Fprintf(w, "%d,%d,%.9g\n", e.U, e.V, e.W)
		}
		w.Flush()
		f.Close()
		fmt.Printf("wrote %s\n", *out)
	}
}
