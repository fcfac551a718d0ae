package parclust

// Integration tests: run the complete pipeline — generator, k-d tree, WSPD,
// MST, dendrogram, reachability plot, flat extraction — over every workload
// of the paper's evaluation at a reduced scale, cross-checking the pieces
// against each other and against dense oracles where affordable.

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"parclust/internal/dendrogram"
	"parclust/internal/generator"
	"parclust/internal/metric"
	"parclust/internal/mst"
	"parclust/internal/oracle"
)

const integrationN = 600

func TestPipelineOnAllPaperDatasets(t *testing.T) {
	for _, d := range generator.PaperDatasets() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			pts := d.Gen(integrationN, 7)
			minPts := 10

			// EMST: the fast path must match the dense oracle.
			edges, err := EMST(pts)
			if err != nil {
				t.Fatal(err)
			}
			wantE := mst.TotalWeight(mst.PrimDense(pts.N, func(i, j int32) float64 {
				return pts.Dist(int(i), int(j))
			}))
			if gotE := mst.TotalWeight(edges); math.Abs(gotE-wantE) > 1e-6*(1+wantE) {
				t.Fatalf("EMST weight %v, want %v", gotE, wantE)
			}

			// HDBSCAN*: both algorithms must match the mutual oracle.
			want := mst.TotalWeight(mst.PrimDense(pts.N, oracle.MutualReachability(pts, minPts, metric.L2{})))
			for _, algo := range []HDBSCANAlgorithm{HDBSCANMemoGFK, HDBSCANGanTao} {
				h, err := hdbscanWith(pts, minPts, algo)
				if err != nil {
					t.Fatalf("%v: %v", algo, err)
				}
				if math.Abs(h.TotalWeight()-want) > 1e-6*(1+want) {
					t.Fatalf("%v weight %v, want %v", algo, h.TotalWeight(), want)
				}
			}

			// Hierarchy internals: plot must match the Prim oracle; cuts must
			// match the direct DBSCAN* implementation at the median MST weight.
			h, err := HDBSCAN(pts, minPts)
			if err != nil {
				t.Fatal(err)
			}
			plot := h.ReachabilityPlot()
			oracle := dendrogram.PrimOrder(pts.N, h.MST, 0)
			for i := range oracle {
				if plot[i].Idx != oracle[i].Idx {
					t.Fatalf("reachability plot differs from Prim at position %d", i)
				}
			}
			mid := h.MST[len(h.MST)/2].W
			cut := h.ClustersAt(mid)
			direct, err := DBSCANStar(pts, minPts, mid)
			if err != nil {
				t.Fatal(err)
			}
			if cut.NumClusters != direct.NumClusters {
				t.Fatalf("cut at %v: %d clusters, direct DBSCAN* %d", mid, cut.NumClusters, direct.NumClusters)
			}

			// The dendrogram serializes to structurally valid Newick.
			var sb strings.Builder
			if err := h.WriteNewick(&sb, nil); err != nil {
				t.Fatal(err)
			}
			if strings.Count(sb.String(), "(") != pts.N-1 {
				t.Fatal("newick structure wrong")
			}
		})
	}
}

func TestPipelineApproxVsExactOnAllDatasets(t *testing.T) {
	for _, d := range generator.PaperDatasets() {
		pts := d.Gen(400, 11)
		exact, err := HDBSCAN(pts, 10)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := ApproxOPTICS(pts, 10, 0.125)
		if err != nil {
			t.Fatal(err)
		}
		lo := exact.TotalWeight() / 1.125
		hi := exact.TotalWeight() * 1.125
		if w := approx.TotalWeight(); w < lo-1e-9 || w > hi+1e-9 {
			t.Fatalf("%s: approx weight %v outside [%v, %v]", d.Name, w, lo, hi)
		}
	}
}

func TestPipelineMinPtsSweep(t *testing.T) {
	pts := generator.SSVarden(500, 2, 13)
	prev := -1.0
	for _, minPts := range []int{1, 2, 5, 10, 25, 50} {
		h, err := HDBSCAN(pts, minPts)
		if err != nil {
			t.Fatal(err)
		}
		w := h.TotalWeight()
		// Mutual reachability distances are monotone in minPts, so MST
		// weight must be non-decreasing.
		if w < prev-1e-9 {
			t.Fatalf("minPts=%d: MST weight %v decreased below %v", minPts, w, prev)
		}
		prev = w
	}
}

func TestPipelineThreadIndependence(t *testing.T) {
	// The same input must give identical results regardless of worker count
	// (determinism is a stated design property). Sweep GOMAXPROCS explicitly
	// so the work-stealing scheduler runs both fully sequential and with
	// real steal traffic over the whole EMST + HDBSCAN* pipeline.
	pts := generator.GeoLifeLike(800, 3)
	run := func() ([]Bar, float64, []Edge) {
		h, err := HDBSCAN(pts, 10)
		if err != nil {
			t.Fatal(err)
		}
		emst, err := EMST(pts)
		if err != nil {
			t.Fatal(err)
		}
		return h.ReachabilityPlot(), h.TotalWeight(), emst
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	basePlot, baseW, baseEMST := run()
	for _, procs := range []int{2, 8} {
		runtime.GOMAXPROCS(procs)
		plot, w, emst := run()
		if w != baseW {
			t.Fatalf("GOMAXPROCS=%d: HDBSCAN* MST weight %v != %v at 1 worker", procs, w, baseW)
		}
		for i := range basePlot {
			if basePlot[i] != plot[i] {
				t.Fatalf("GOMAXPROCS=%d: reachability plot differs at %d", procs, i)
			}
		}
		if len(emst) != len(baseEMST) {
			t.Fatalf("GOMAXPROCS=%d: EMST has %d edges, want %d", procs, len(emst), len(baseEMST))
		}
		for i := range baseEMST {
			if emst[i] != baseEMST[i] {
				t.Fatalf("GOMAXPROCS=%d: EMST edge %d differs: %v vs %v", procs, i, emst[i], baseEMST[i])
			}
		}
	}
}
