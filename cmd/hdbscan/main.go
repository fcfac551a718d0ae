// Command hdbscan computes an HDBSCAN* hierarchy (MST of the mutual
// reachability graph plus ordered dendrogram) and optionally extracts flat
// clusters at one or more radii or emits the reachability plot.
//
// Usage:
//
//	hdbscan -gen varden -n 100000 -dim 2 -minpts 10 -eps 2.5
//	hdbscan -input points.csv -minpts 25 -plot reach.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"parclust"
	"parclust/internal/dataio"
)

func main() {
	var (
		input   = flag.String("input", "", "CSV file of points (one point per line)")
		genKind = flag.String("gen", "varden", "synthetic generator when -input is empty: uniform | varden | mixture | geolife")
		n       = flag.Int("n", 100000, "number of generated points")
		dim     = flag.Int("dim", 2, "dimension of generated points")
		seed    = flag.Int64("seed", 42, "generator seed")
		minPts  = flag.Int("minpts", 10, "HDBSCAN* minPts parameter")
		algo    = flag.String("algo", "memogfk", "algorithm: memogfk | gantao | gantaofull | approx")
		metricF = flag.String("metric", "l2", "distance kernel: l2 | sql2 | l1 | linf | angular (approx is l2-only)")
		rho     = flag.Float64("rho", 0.125, "approximation parameter for -algo approx")
		epsList = flag.String("eps", "", "comma-separated radii for flat cluster extraction")
		plot    = flag.String("plot", "", "write the reachability plot (idx,height per line) to this file")
		newick  = flag.String("newick", "", "write the dendrogram in Newick format to this file")
		stable  = flag.Int("stable", 0, "extract stability-optimal clusters with this minimum cluster size")
		phases  = flag.Bool("phases", false, "print the hierarchy's build report (the time of each phase that ran, in pipeline order) and the stage cache counters")
		threads = flag.Int("threads", 0, "GOMAXPROCS override (0 = all cores)")
	)
	flag.Parse()
	if *threads > 0 {
		runtime.GOMAXPROCS(*threads)
	}
	pts, err := dataio.LoadOrGenerate(*input, *genKind, *n, *dim, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hdbscan:", err)
		os.Exit(1)
	}
	m, err := parclust.ParseMetric(*metricF)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hdbscan:", err)
		os.Exit(2)
	}
	start := time.Now()
	// Everything below runs off one Index: the hierarchy, every -eps cut,
	// the stable extraction, and the plot share a single tree build.
	var idx *parclust.Index
	var h *parclust.Hierarchy
	if strings.EqualFold(*algo, "approx") {
		if m != parclust.MetricL2 {
			err = fmt.Errorf("algorithm approx supports the l2 metric only, got %v", m)
		} else {
			h, err = parclust.ApproxOPTICS(pts, *minPts, *rho)
		}
	} else {
		var ha parclust.HDBSCANAlgorithm
		ha, err = parclust.ParseHDBSCANAlgorithm(*algo)
		if err == nil {
			idx, err = parclust.NewIndex(pts, &parclust.IndexOptions{Metric: m})
		}
		if err == nil {
			h, err = idx.HDBSCANWithAlgorithm(*minPts, ha)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hdbscan:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	fmt.Printf("algorithm=%s metric=%v n=%d dim=%d minPts=%d threads=%d\n",
		*algo, m, pts.N, pts.Dim, *minPts, runtime.GOMAXPROCS(0))
	fmt.Printf("mst_edges=%d mst_weight=%.6f time=%.3fs\n",
		len(h.MST), h.TotalWeight(), elapsed.Seconds())
	if *phases {
		for p, d := range h.BuildReport().Phases {
			if d > 0 {
				fmt.Printf("phase %-12s %.3fs\n", parclust.Phase(p), d.Seconds())
			}
		}
		if idx != nil {
			s := idx.Stats()
			fmt.Printf("stage cache: tree %d built/%d hit, core-dist %d/%d, mst %d/%d, dendrogram %d/%d\n",
				s.TreeBuilds, s.TreeHits, s.CoreDistBuilds, s.CoreDistHits,
				s.MSTBuilds, s.MSTHits, s.DendrogramBuilds, s.DendrogramHits)
		}
	}
	if *epsList != "" {
		for _, s := range strings.Split(*epsList, ",") {
			eps, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hdbscan: bad eps %q\n", s)
				os.Exit(2)
			}
			c := h.ClustersAt(eps)
			sizes := map[int32]int{}
			noise := 0
			for _, l := range c.Labels {
				if l == -1 {
					noise++
				} else {
					sizes[l]++
				}
			}
			largest := 0
			for _, s := range sizes {
				if s > largest {
					largest = s
				}
			}
			fmt.Printf("eps=%g clusters=%d noise=%d largest=%d\n", eps, c.NumClusters, noise, largest)
		}
	}
	if *stable > 0 {
		c := h.ExtractStableClusters(*stable)
		sizes := map[int32]int{}
		noise := 0
		for _, l := range c.Labels {
			if l == -1 {
				noise++
			} else {
				sizes[l]++
			}
		}
		fmt.Printf("stable extraction (minClusterSize=%d): %d clusters, %d noise\n",
			*stable, c.NumClusters, noise)
	}
	if *newick != "" {
		f, err := os.Create(*newick)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hdbscan:", err)
			os.Exit(1)
		}
		if err := h.WriteNewick(f, nil); err != nil {
			fmt.Fprintln(os.Stderr, "hdbscan:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("wrote %s\n", *newick)
	}
	if *plot != "" {
		f, err := os.Create(*plot)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hdbscan:", err)
			os.Exit(1)
		}
		w := bufio.NewWriter(f)
		for _, b := range h.ReachabilityPlot() {
			fmt.Fprintf(w, "%d,%.9g\n", b.Idx, b.H)
		}
		w.Flush()
		f.Close()
		fmt.Printf("wrote %s\n", *plot)
	}
}
