package parclust

// Benchmarks, one per table and figure of the paper's evaluation
// (Section 5). Each benchmark exercises the exact code path the
// corresponding cmd/benchsuite experiment uses; benchsuite produces the
// paper-style rows, while these provide ns/op and allocation profiles.
// Sizes are kept modest so `go test -bench=.` completes quickly; use
// cmd/benchsuite -n to scale up.

import (
	"fmt"
	"testing"

	"parclust/internal/dendrogram"
	"parclust/internal/generator"
	"parclust/internal/geometry"
	"parclust/internal/kdtree"
	mstpkg "parclust/internal/mst"
	"parclust/internal/wspd"
)

// mstConfig builds an internal MST config for ablation benchmarks.
func mstConfig(t *kdtree.Tree) mstpkg.Config {
	return mstpkg.Config{Tree: t, Metric: kdtree.NewEuclidean(t), Sep: wspd.Geometric{S: 2}}
}

const benchN = 10000

func benchPoints(dim int) Points { return generator.UniformFill(benchN, dim, 1) }
func benchVarden(dim int) Points { return generator.SSVarden(benchN, dim, 1) }

// BenchmarkTable2_SpeedupInputs measures the quantities Table 2 aggregates:
// the fastest algorithms on a representative dataset.
func BenchmarkTable2_SpeedupInputs(b *testing.B) {
	pts := benchVarden(3)
	b.Run("EMST-MemoGFK", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := EMST(pts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("HDBSCAN-MemoGFK", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := HDBSCAN(pts, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable3_DualTreeBoruvka is the sequential baseline the paper
// compares against mlpack (Table 3).
func BenchmarkTable3_DualTreeBoruvka(b *testing.B) {
	for _, dim := range []int{2, 3, 5} {
		pts := benchPoints(dim)
		b.Run(fmt.Sprintf("%dD-UniformFill", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := emstWith(pts, EMSTBoruvka, MetricL2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable4_EMST covers the EMST algorithm matrix of Table 4.
func BenchmarkTable4_EMST(b *testing.B) {
	algos := []EMSTAlgorithm{EMSTNaive, EMSTGFK, EMSTMemoGFK}
	for _, dim := range []int{2, 5} {
		for _, gen := range []struct {
			name string
			pts  Points
		}{
			{"UniformFill", benchPoints(dim)},
			{"SS-varden", benchVarden(dim)},
		} {
			for _, algo := range algos {
				b.Run(fmt.Sprintf("%dD-%s/%v", dim, gen.name, algo), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := emstWith(gen.pts, algo, MetricL2); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
	// Delaunay is 2D-only.
	pts2 := benchPoints(2)
	b.Run("2D-UniformFill/EMST-Delaunay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := emstWith(pts2, EMSTDelaunay2D, MetricL2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable5_HDBSCAN covers the HDBSCAN* matrix of Table 5
// (times include dendrogram construction, as in the paper).
func BenchmarkTable5_HDBSCAN(b *testing.B) {
	for _, dim := range []int{2, 5} {
		for _, algo := range []HDBSCANAlgorithm{HDBSCANMemoGFK, HDBSCANGanTao} {
			pts := benchVarden(dim)
			b.Run(fmt.Sprintf("%dD-SS-varden/%v", dim, algo), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := hdbscanWith(pts, 10, algo); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig6_EMSTThreads is the thread-scaling series of Figure 6;
// vary GOMAXPROCS externally (benchsuite sweeps it automatically).
func BenchmarkFig6_EMSTThreads(b *testing.B) {
	pts := benchPoints(3)
	for i := 0; i < b.N; i++ {
		if _, err := EMST(pts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7_HDBSCANThreads is the thread-scaling series of Figure 7.
func BenchmarkFig7_HDBSCANThreads(b *testing.B) {
	pts := benchVarden(3)
	for i := 0; i < b.N; i++ {
		if _, err := HDBSCAN(pts, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8_Decomposition separates the phases of Figure 8: tree build,
// core distances, WSPD/MST, and dendrogram.
func BenchmarkFig8_Decomposition(b *testing.B) {
	pts := benchVarden(3)
	b.Run("build-tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kdtree.Build(pts, 1)
		}
	})
	t := kdtree.Build(pts, 1)
	b.Run("core-dist", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t.CoreDistances(10)
		}
	})
	edges, err := EMST(pts)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("dendrogram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dendrogram.BuildParallel(pts.N, edges, 0)
		}
	})
}

// BenchmarkFig9_Dendrogram compares sequential and parallel ordered
// dendrogram construction for single-linkage and HDBSCAN* inputs (Figure 9).
func BenchmarkFig9_Dendrogram(b *testing.B) {
	pts := benchVarden(2)
	emst, err := EMST(pts)
	if err != nil {
		b.Fatal(err)
	}
	h, err := HDBSCAN(pts, 10)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name  string
		edges []Edge
	}{{"single-linkage", emst}, {"hdbscan-minpts10", h.MST}} {
		b.Run(v.name+"/sequential", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dendrogram.BuildSequential(pts.N, v.edges, 0)
			}
		})
		b.Run(v.name+"/parallel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dendrogram.BuildParallel(pts.N, v.edges, 0)
			}
		})
	}
}

// BenchmarkFig10_ApproxOPTICS compares approximate OPTICS against the exact
// algorithms (Figure 10).
func BenchmarkFig10_ApproxOPTICS(b *testing.B) {
	pts := generator.GaussianMixture(benchN, 7, 20, 1)
	b.Run("approx-rho0.125", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ApproxOPTICS(pts, 10, 0.125); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact-memogfk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := HDBSCAN(pts, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// emstPeakPairs builds the MST of pts with algo on a fresh Index and
// returns the build report's peak resident pairs.
func emstPeakPairs(b *testing.B, pts Points, algo EMSTAlgorithm) int64 {
	idx, err := NewIndex(pts, nil)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := idx.EMSTBuildReport(algo)
	if err != nil {
		b.Fatal(err)
	}
	return rep.PeakPairsResident
}

// BenchmarkMemory_PairsMaterialized quantifies the MemoGFK memory win
// (Section 3.1.3): peak resident pairs, reported as custom metrics.
func BenchmarkMemory_PairsMaterialized(b *testing.B) {
	pts := benchPoints(5)
	b.Run("GFK-full-WSPD", func(b *testing.B) {
		var peak int64
		for i := 0; i < b.N; i++ {
			peak = emstPeakPairs(b, pts, EMSTGFK)
		}
		b.ReportMetric(float64(peak), "peak-pairs")
	})
	b.Run("MemoGFK", func(b *testing.B) {
		var peak int64
		for i := 0; i < b.N; i++ {
			peak = emstPeakPairs(b, pts, EMSTMemoGFK)
		}
		b.ReportMetric(float64(peak), "peak-pairs")
	})
}

// BenchmarkAblation_WellSeparation isolates the paper's new disjunctive
// well-separation (Section 3.2.2): same metric and machinery, different
// separation predicate.
func BenchmarkAblation_WellSeparation(b *testing.B) {
	pts := benchVarden(5)
	for _, algo := range []HDBSCANAlgorithm{HDBSCANMemoGFK, HDBSCANGanTao} {
		b.Run(algo.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := hdbscanWith(pts, 10, algo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_DendrogramThreshold sweeps the sequential cutoff of the
// parallel dendrogram builder (the paper's "switch below n/2" note).
func BenchmarkAblation_DendrogramThreshold(b *testing.B) {
	pts := benchVarden(2)
	edges, err := EMST(pts)
	if err != nil {
		b.Fatal(err)
	}
	for _, thr := range []int{256, 2048, 1 << 14} {
		b.Run(fmt.Sprintf("threshold-%d", thr), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dendrogram.BuildParallelThreshold(pts.N, edges, 0, thr)
			}
		})
	}
}

// BenchmarkSubstrate_KdTree profiles the substrate operations every
// algorithm relies on.
func BenchmarkSubstrate_KdTree(b *testing.B) {
	pts := benchPoints(3)
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kdtree.Build(pts, 1)
		}
	})
	t := kdtree.Build(pts, 1)
	b.Run("knn-10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t.KNN(int32(i%pts.N), 10)
		}
	})
	b.Run("wspd-count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			wspd.Count(t, wspd.Geometric{S: 2})
		}
	})
}

var sinkPts geometry.Points

// BenchmarkSubstrate_Generators measures workload generation throughput.
func BenchmarkSubstrate_Generators(b *testing.B) {
	b.Run("uniform", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkPts = generator.UniformFill(benchN, 3, int64(i))
		}
	})
	b.Run("varden", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkPts = generator.SSVarden(benchN, 3, int64(i))
		}
	})
}

// BenchmarkAblation_BetaSchedule contrasts the paper's doubling beta
// schedule with the linear schedule of the sequential GFK of Chatterjee et
// al. (Section 3.1.2 notes doubling is crucial for the depth bound).
func BenchmarkAblation_BetaSchedule(b *testing.B) {
	pts := benchPoints(3)
	t := kdtree.Build(pts, 1)
	for _, linear := range []bool{false, true} {
		name := "doubling"
		if linear {
			name = "linear"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := mstConfig(t)
				cfg.LinearBeta = linear
				mstpkg.MemoGFK(cfg)
			}
		})
	}
}

// BenchmarkAblation_MSTStrategy compares the Kruskal-based MemoGFK against
// the Borůvka-over-WSPD strategy of Appendix B and the single-tree Borůvka.
func BenchmarkAblation_MSTStrategy(b *testing.B) {
	pts := benchVarden(3)
	for _, algo := range []EMSTAlgorithm{EMSTMemoGFK, EMSTWSPDBoruvka, EMSTBoruvka} {
		b.Run(algo.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := emstWith(pts, algo, MetricL2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIndexServe measures the serving regimes the Index separates: a
// minPts x eps parameter sweep answered by one shared Index versus the
// one-shot APIs in a loop (the cmd/benchsuite "serve" experiment).
func BenchmarkIndexServe(b *testing.B) {
	pts := benchVarden(2)
	minPtsList := []int{5, 10, 20}
	epsList := []float64{0.5, 1, 2, 4, 8}
	b.Run("shared-index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			idx, err := NewIndex(pts, nil)
			if err != nil {
				b.Fatal(err)
			}
			for _, mp := range minPtsList {
				h, err := idx.HDBSCAN(mp)
				if err != nil {
					b.Fatal(err)
				}
				for _, eps := range epsList {
					h.ClustersAt(eps)
					h.NumNoiseAt(eps)
				}
			}
		}
	})
	b.Run("one-shot-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, mp := range minPtsList {
				for _, eps := range epsList {
					h, err := HDBSCAN(pts, mp)
					if err != nil {
						b.Fatal(err)
					}
					h.ClustersAt(eps)
					h.NumNoiseAt(eps)
				}
			}
		}
	})
}

// BenchmarkIndexCut isolates the precomputed-cut path: repeated ClustersAt
// on a warm hierarchy (near-O(n) off the sorted merge order) and the
// O(log n) NumNoiseAt.
func BenchmarkIndexCut(b *testing.B) {
	pts := benchVarden(2)
	idx, err := NewIndex(pts, nil)
	if err != nil {
		b.Fatal(err)
	}
	h, err := idx.HDBSCAN(10)
	if err != nil {
		b.Fatal(err)
	}
	h.ClustersAt(1) // warm the cut structure
	b.Run("ClustersAt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.ClustersAt(float64(i%5) + 0.5)
		}
	})
	b.Run("NumNoiseAt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.NumNoiseAt(float64(i%5) + 0.5)
		}
	})
}

// BenchmarkHighdim_Float32 compares the float32 SoA fast path against the
// float64 default on embedding-style high-dimensional data (the benchsuite
// `highdim` experiment in benchmark form): end-to-end HDBSCAN*, the
// core-distance stage, and warm per-query k-NN. The float64 runs are the
// baselines the acceptance ratios divide by.
func BenchmarkHighdim_Float32(b *testing.B) {
	for _, dim := range []int{16, 128} {
		n := benchN / 2
		if dim >= 128 {
			n = benchN / 10 // keep the -bench=. sweep quick; benchsuite scales up
		}
		pts := generator.Embed(n, dim, 16, 1)
		for _, dtype := range []string{"float64", "float32"} {
			opts := &IndexOptions{Float32: dtype == "float32"}
			b.Run(fmt.Sprintf("op=hdbscan/dim=%d/dtype=%s", dim, dtype), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					idx, err := NewIndex(pts, opts)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := idx.HDBSCAN(10); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("op=coredist/dim=%d/dtype=%s", dim, dtype), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer() // stage memoization needs a fresh Index per run
					idx, err := NewIndex(pts, opts)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := idx.CoreDistances(10); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("op=knn/dim=%d/dtype=%s", dim, dtype), func(b *testing.B) {
				idx, err := NewIndex(pts, opts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := idx.KNN(0, 10); err != nil { // warm the tree stage
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := idx.KNN(int32(i%n), 10); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
