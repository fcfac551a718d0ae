package dendrogram

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"parclust/internal/kdtree"
	"parclust/internal/metric"
	"parclust/internal/mst"
	"parclust/internal/wspd"
)

// hdbscanMSTOf computes the mutual-reachability MST and core distances the
// Cutter tests cut.
func hdbscanMSTOf(n, dim int, seed int64, minPts int) ([]mst.Edge, []float64) {
	pts := randPoints(n, dim, seed)
	tr := kdtree.BuildMetric(pts, 1, metric.L2{})
	cd := tr.CoreDistances(minPts)
	tr.AnnotateCoreDists(cd)
	edges := mst.MemoGFK(mst.Config{Tree: tr, Metric: kdtree.NewMutualReachability(tr), Sep: wspd.MutualUnreachable{}})
	return edges, cd
}

func TestCutterMatchesCutTreeWithCoreDistances(t *testing.T) {
	edges, cd := hdbscanMSTOf(250, 2, 7, 6)
	c := NewCutter(250, edges, cd)
	epsList := []float64{0, 0.5, 2, 5, 12, 40, 1e9, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, eps := range epsList {
		got := c.CutAt(eps)
		want := CutTree(250, edges, cd, eps)
		if got.NumClusters != want.NumClusters {
			t.Fatalf("eps=%v: %d vs %d clusters", eps, got.NumClusters, want.NumClusters)
		}
		for i := range got.Labels {
			if got.Labels[i] != want.Labels[i] {
				t.Fatalf("eps=%v: label mismatch at %d: %d vs %d", eps, i, got.Labels[i], want.Labels[i])
			}
		}
		noise := 0
		for _, l := range want.Labels {
			if l == -1 {
				noise++
			}
		}
		if got := c.NumNoiseAt(eps); got != noise {
			t.Fatalf("eps=%v: NumNoiseAt %d, want %d", eps, got, noise)
		}
	}
}

func TestCutterUnsortedEdgesAndForest(t *testing.T) {
	// Shuffled edges must be re-sorted internally; dropping edges leaves a
	// forest, which the merge replay must handle.
	edges, cd := hdbscanMSTOf(120, 3, 9, 4)
	rng := rand.New(rand.NewSource(1))
	shuffled := append([]mst.Edge(nil), edges...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	forest := shuffled[:len(shuffled)-10]
	c := NewCutter(120, forest, cd)
	for _, eps := range []float64{0.5, 3, 20} {
		got := c.CutAt(eps)
		want := CutTree(120, forest, cd, eps)
		for i := range got.Labels {
			if got.Labels[i] != want.Labels[i] {
				t.Fatalf("eps=%v: label mismatch at %d", eps, i)
			}
		}
	}
	// The shuffled input slice must not have been reordered.
	for i := range shuffled[:len(shuffled)-10] {
		if shuffled[i] != forest[i] {
			t.Fatal("NewCutter mutated its input edges")
		}
	}
}

func TestCutterTrivialSizes(t *testing.T) {
	if c := NewCutter(0, nil, nil); len(c.CutAt(1).Labels) != 0 || c.NumNoiseAt(1) != 0 {
		t.Fatal("n=0 cut not empty")
	}
	c := NewCutter(1, nil, []float64{0})
	if got := c.CutAt(0.5); got.NumClusters != 1 || got.Labels[0] != 0 {
		t.Fatalf("n=1 cut: %+v", got)
	}
	if c.NumNoiseAt(-1) != 1 {
		t.Fatal("n=1: core distance 0 should be noise below eps=0")
	}
}

func TestCutterConcurrent(t *testing.T) {
	edges, cd := hdbscanMSTOf(400, 2, 21, 8)
	c := NewCutter(400, edges, cd)
	epsList := []float64{0.5, 2, 5, 12, 40}
	want := make([]Clustering, len(epsList))
	for i, eps := range epsList {
		want[i] = CutTree(400, edges, cd, eps)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 50; it++ {
				i := (g + it) % len(epsList)
				got := c.CutAt(epsList[i])
				if got.NumClusters != want[i].NumClusters {
					t.Errorf("concurrent cut at %v: %d clusters, want %d",
						epsList[i], got.NumClusters, want[i].NumClusters)
					return
				}
				for j := range got.Labels {
					if got.Labels[j] != want[i].Labels[j] {
						t.Errorf("concurrent cut at %v: label mismatch at %d", epsList[i], j)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzCutAt checks Cutter.CutAt against CutTree on random forests: trees of
// every shape with tied weights, up to 2,000 points, with a fuzz-chosen
// share of their edges dropped and core distances absent or drawn from the
// weights' alphabet. Each forest is cut at every merge height, halfway
// between them, below them all, and at NaN and ±Inf.
func FuzzCutAt(f *testing.F) {
	for shape := range uint8(numShapes) {
		f.Add(int64(shape), shape, uint16(300), uint8(3), uint8(0), false)
		f.Add(int64(shape)+10, shape, uint16(1999), uint8(9), uint8(60), true)
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, nRaw uint16, alphabet uint8, drop uint8, core bool) {
		rng := rand.New(rand.NewSource(seed))
		n, a := 1+int(nRaw%2000), 1+int(alphabet%16)
		edges := shapedTree(rng, int(shape%numShapes), n, a)
		edges = slices.DeleteFunc(edges, func(mst.Edge) bool { return rng.Intn(256) < int(drop) })
		var cd []float64
		if core {
			cd = make([]float64, n)
			for i := range cd {
				cd[i] = float64(rng.Intn(a + 1))
			}
		}
		c := NewCutter(n, edges, cd)
		epsList := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1}
		for w := range a + 1 {
			epsList = append(epsList, float64(w), float64(w)-0.5)
		}
		for _, eps := range epsList {
			got, want := c.CutAt(eps), CutTree(n, edges, cd, eps)
			if got.NumClusters != want.NumClusters || !slices.Equal(got.Labels, want.Labels) {
				t.Fatalf("n=%d, %d edges, eps=%v: %d clusters %v, want %d %v", n, len(edges), eps, got.NumClusters, got.Labels, want.NumClusters, want.Labels)
			}
			if noise := c.NumNoiseAt(eps); noise != countNoise(want.Labels) {
				t.Fatalf("n=%d eps=%v: NumNoiseAt %d, want %d", n, eps, noise, countNoise(want.Labels))
			}
		}
	})
}

// countNoise counts the noise labels (-1).
func countNoise(labels []int32) int {
	k := 0
	for _, l := range labels {
		if l == -1 {
			k++
		}
	}
	return k
}
