package parclust

// Benchmarks, one per table and figure of the paper's evaluation
// (Section 5), plus the serving, float32 and incremental-ingest studies.
// They report ns/op, allocation profiles and custom metrics for benchstat.
// Sizes are kept modest so `go test -bench=.` completes quickly. Sweep the
// worker count with one invocation per -cpu value, e.g.
// `for p in 1 2 4; do go test -run '^$' -bench Fig6 -cpu $p .; done`:
// one `-cpu 1,2,4` run times a benchmark with sub-benchmarks at the default
// GOMAXPROCS for the first value's first sample.

import (
	"fmt"
	"slices"
	"testing"
	"time"

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
// vary the worker count with -cpu, one invocation per value.
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
// The geolife-mix-20k case is the n=20,000 HDBSCAN* (minPts 10) input that
// TestGoldenDendrogram pins, at the scale of the hierarchies the daemon
// rebuilds after every insert or delete; run it once under -cpu 1 and once
// under -cpu 2 to see what a second worker costs or saves (one invocation
// per value, as the file header explains).
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
	mix := geoLifeMix20k()
	hMix, err := HDBSCAN(mix, 10)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name  string
		n     int
		edges []Edge
	}{
		{"single-linkage", pts.N, emst},
		{"hdbscan-minpts10", pts.N, h.MST},
		{"geolife-mix-20k-hdbscan-minpts10", mix.N, hMix.MST},
	} {
		b.Run(v.name+"/sequential", func(b *testing.B) {
			for b.Loop() {
				dendrogram.BuildSequential(v.n, v.edges, 0)
			}
		})
		b.Run(v.name+"/parallel", func(b *testing.B) {
			for b.Loop() {
				dendrogram.BuildParallel(v.n, v.edges, 0)
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
// one-shot APIs in a loop.
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
// float64 default on embedding-style high-dimensional data: end-to-end
// HDBSCAN*, the core-distance stage, and warm per-query k-NN. The float64
// runs are the baselines the acceptance ratios divide by.
func BenchmarkHighdim_Float32(b *testing.B) {
	for _, dim := range []int{16, 128} {
		n := benchN / 2
		if dim >= 128 {
			n = benchN / 10 // keep the -bench=. sweep quick
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

// BenchmarkIngest measures the incremental-update contract on a stream of
// 50 batches of n/100 SS-varden rows. One live Index absorbs every batch
// (Insert, then a warm k-NN query), and its final Compact is charged to it
// too; the alternative builds a fresh Index over all rows so far per batch
// and runs the same query. It reports both amortized per-insert costs. It
// fails if a query after a batch differs between the two, if k-NN of 256
// points spread over base and stream differs from the last fresh build's,
// or if, at n=100k, the incremental side is less than 10x cheaper per
// insert.
func BenchmarkIngest(b *testing.B) {
	const batches, k, minSpeedup = 50, 8, 10
	knn := func(ix *Index, q int) []Neighbor {
		nb, err := ix.KNN(int32(q), k)
		if err != nil {
			b.Fatal(err)
		}
		return nb
	}
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			base := generator.SSVarden(n, 2, 42)
			rows := n / 100
			stream := generator.SSVarden(batches*rows, 2, 43)
			var inc, reb time.Duration
			for range b.N {
				incIdx, err := NewIndex(base, nil)
				if err != nil {
					b.Fatal(err)
				}
				knn(incIdx, 0) // build the base tree untimed
				incKNN := make([][]Neighbor, batches)
				start := time.Now()
				for i := range batches {
					if _, err := incIdx.Insert(Points{Data: stream.Data[i*rows*2 : (i+1)*rows*2], N: rows, Dim: 2}); err != nil {
						b.Fatal(err)
					}
					incKNN[i] = knn(incIdx, 0)
				}
				if err := incIdx.Compact(); err != nil {
					b.Fatal(err)
				}
				inc += time.Since(start)

				all := slices.Clone(base.Data)
				var fresh *Index
				for i := range batches {
					start := time.Now()
					all = append(all, stream.Data[i*rows*2:(i+1)*rows*2]...)
					if fresh, err = NewIndex(Points{Data: all, N: len(all) / 2, Dim: 2}, nil); err != nil {
						b.Fatal(err)
					}
					want := knn(fresh, 0)
					reb += time.Since(start)
					if !slices.Equal(incKNN[i], want) {
						b.Fatalf("batch %d: incremental k-NN %v, fresh build %v", i, incKNN[i], want)
					}
				}
				for q := 0; q < fresh.N(); q += fresh.N() / 256 {
					if got, want := knn(incIdx, q), knn(fresh, q); !slices.Equal(got, want) {
						b.Fatalf("after the stream, k-NN of %d: incremental %v, fresh build %v", q, got, want)
					}
				}
			}
			inserts := float64(b.N * batches * rows)
			incPer, rebPer := float64(inc.Nanoseconds())/inserts, float64(reb.Nanoseconds())/inserts
			b.ReportMetric(incPer, "incremental-ns/insert")
			b.ReportMetric(rebPer, "rebuild-ns/insert")
			if speedup := rebPer / incPer; n >= 100_000 && speedup < minSpeedup {
				b.Fatalf("incremental inserts only %.1fx cheaper than rebuild-per-batch, want >= %dx", speedup, minSpeedup)
			}
		})
	}
}
