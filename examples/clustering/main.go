// Clustering: density-based cluster discovery on variable-density data —
// the workload HDBSCAN* is designed for. A single DBSCAN radius cannot
// capture clusters of different densities; the HDBSCAN* hierarchy exposes
// all of them at once, and this example sweeps the hierarchy to find a
// radius per density regime and renders a coarse ASCII reachability plot.
package main

import (
	"fmt"
	"math"
	"strings"

	"parclust"
)

func main() {
	pts := parclust.GenerateVarden(20000, 2, 7)
	h, err := parclust.HDBSCAN(pts, 10)
	if err != nil {
		panic(err)
	}
	fmt.Printf("HDBSCAN* on %d variable-density points (minPts=10)\n", pts.N)
	for p, d := range h.BuildReport().Phases {
		if d > 0 {
			fmt.Printf("  phase %-12s %.3fs\n", parclust.Phase(p), d.Seconds())
		}
	}

	// Sweep eps geometrically across the edge-weight range of the MST.
	lo, hi := math.Inf(1), 0.0
	for _, e := range h.MST {
		if e.W > 0 {
			lo = math.Min(lo, e.W)
		}
		hi = math.Max(hi, e.W)
	}
	fmt.Println("\n  eps        clusters   noise   largest")
	for eps := lo; eps <= hi; eps *= 4 {
		c := h.ClustersAt(eps)
		noise, largest := 0, 0
		sizes := map[int32]int{}
		for _, l := range c.Labels {
			if l == -1 {
				noise++
			} else {
				sizes[l]++
			}
		}
		for _, s := range sizes {
			if s > largest {
				largest = s
			}
		}
		fmt.Printf("  %-10.3f %-10d %-7d %d\n", eps, c.NumClusters, noise, largest)
	}

	// Coarse ASCII reachability plot: bucket the bars and draw log-scaled
	// column heights; valleys (runs of low columns) are clusters.
	plot := h.ReachabilityPlot()
	const cols = 72
	bucket := (len(plot) + cols - 1) / cols
	heights := make([]float64, 0, cols)
	for i := 0; i < len(plot); i += bucket {
		s, cnt := 0.0, 0
		for j := i; j < len(plot) && j < i+bucket; j++ {
			if !math.IsInf(plot[j].H, 1) {
				s += plot[j].H
				cnt++
			}
		}
		if cnt > 0 {
			heights = append(heights, s/float64(cnt))
		} else {
			heights = append(heights, 0)
		}
	}
	maxH := 0.0
	for _, v := range heights {
		maxH = math.Max(maxH, v)
	}
	fmt.Println("\nreachability plot (valleys = clusters):")
	const rows = 8
	for r := rows; r >= 1; r-- {
		var b strings.Builder
		for _, v := range heights {
			level := 0.0
			if v > 0 {
				level = math.Log1p(v) / math.Log1p(maxH) * rows
			}
			if level >= float64(r) {
				b.WriteByte('#')
			} else {
				b.WriteByte(' ')
			}
		}
		fmt.Println("  |" + b.String())
	}
	fmt.Println("  +" + strings.Repeat("-", len(heights)))
}
