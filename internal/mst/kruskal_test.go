package mst

import (
	"math/rand"
	"slices"
	"testing"

	"parclust/internal/parallel"
	"parclust/internal/unionfind"
)

// sortThenScan is the reference Kruskal pass: sort the whole batch under
// Less, then scan it. KruskalBatch must accept the same edges in the same
// order.
func sortThenScan(edges []Edge, uf *unionfind.UF, out []Edge) []Edge {
	parallel.Sort(edges, Less)
	for _, e := range edges {
		if uf.Union(e.U, e.V) {
			out = append(out, e)
		}
	}
	return out
}

// checkBatches feeds the batches, in order, to KruskalBatch and to
// sortThenScan over one union-find each, and fails unless the accepted
// edge sequences and the component counts agree after every batch.
func checkBatches(t *testing.T, n int, batches [][]Edge) {
	t.Helper()
	got, want := unionfind.New(n), unionfind.New(n)
	var gotOut, wantOut []Edge
	for i, b := range batches {
		gotOut = KruskalBatch(slices.Clone(b), got, gotOut)
		wantOut = sortThenScan(slices.Clone(b), want, wantOut)
		if !slices.Equal(gotOut, wantOut) {
			t.Fatalf("batch %d (%d edges): accepted %d edges, want %d, or a different sequence", i, len(b), len(gotOut), len(wantOut))
		}
		if got.Components() != want.Components() {
			t.Fatalf("batch %d: %d components, want %d", i, got.Components(), want.Components())
		}
	}
}

// randomEdges returns m edges between random distinct vertices of [0, n)
// whose weights are lo plus one of k values, so for small k most edges tie
// on weight, as they do under mutual reachability.
func randomEdges(rng *rand.Rand, n, m, lo, k int) []Edge {
	edges := make([]Edge, m)
	for i := range edges {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n - 1))
		if v >= u {
			v++
		}
		edges[i] = MakeEdge(u, v, float64(lo+rng.Intn(k)))
	}
	return edges
}

// windows returns one batch per size, batch i drawing its weights from
// the k values of window i, so the weight ranges increase batch by batch.
func windows(rng *rand.Rand, n, k int, sizes ...int) [][]Edge {
	batches := make([][]Edge, len(sizes))
	for i, m := range sizes {
		batches[i] = randomEdges(rng, n, m, i*k, k)
	}
	return batches
}

// TestKruskalBatchMatchesSortThenScan compares KruskalBatch with the
// reference over batch sizes below, at and far above the base-case cutoff
// (1024 edges), heavy weight ties, identical duplicate edges, batches
// whose endpoints are all connected already, and empty and one-edge
// batches.
func TestKruskalBatchMatchesSortThenScan(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		batches func(rng *rand.Rand) [][]Edge
	}{
		{"empty and one-edge", 8, func(rng *rand.Rand) [][]Edge {
			return [][]Edge{nil, randomEdges(rng, 8, 1, 0, 1), {}, randomEdges(rng, 8, 1, 1, 1), nil}
		}},
		{"below cutoff, three weights", 300, func(rng *rand.Rand) [][]Edge {
			return windows(rng, 300, 3, 10, 200, 700, 50)
		}},
		{"at cutoff", 3000, func(rng *rand.Rand) [][]Edge {
			return windows(rng, 3000, 2, 1023, 1024, 1025)
		}},
		{"far above cutoff, four weights", 20000, func(rng *rand.Rand) [][]Edge {
			return windows(rng, 20000, 4, 30000, 5000, 60000)
		}},
		{"far above cutoff, distinct weights", 20000, func(rng *rand.Rand) [][]Edge {
			return windows(rng, 20000, 1<<30, 40000, 40000)
		}},
		{"identical duplicates", 500, func(rng *rand.Rand) [][]Edge {
			b := windows(rng, 500, 3, 1500, 1500)
			for i := range b {
				b[i] = append(b[i], b[i]...)
				b[i] = append(b[i], b[i][:1000]...)
				rng.Shuffle(len(b[i]), func(x, y int) { b[i][x], b[i][y] = b[i][y], b[i][x] })
			}
			same := slices.Repeat([]Edge{MakeEdge(3, 7, 100)}, 5000)
			return append(b, same, same)
		}},
		{"all connected already", 4000, func(rng *rand.Rand) [][]Edge {
			path := make([]Edge, 3999)
			for i := range path {
				path[i] = MakeEdge(int32(i), int32(i+1), 0)
			}
			rng.Shuffle(len(path), func(x, y int) { path[x], path[y] = path[y], path[x] })
			return [][]Edge{path, randomEdges(rng, 4000, 20000, 1, 3), randomEdges(rng, 4000, 500, 4, 1)}
		}},
		{"sorted and reversed", 10000, func(rng *rand.Rand) [][]Edge {
			b := windows(rng, 10000, 1<<20, 20000, 20000)
			parallel.Sort(b[0], Less)
			parallel.Sort(b[1], func(x, y Edge) bool { return Less(y, x) })
			return b
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkBatches(t, tc.n, tc.batches(rand.New(rand.NewSource(int64(len(tc.name))))))
		})
	}
}

// FuzzKruskalBatch checks KruskalBatch against the reference on batches
// decoded from the fuzz input. data[0] picks the vertex count n of a
// pattern graph and data[1] the number of disjoint copies of it, so short
// inputs still reach batches above the base-case cutoff. Each following
// (u, v, w) triple adds the edge {u mod n, v mod n} to every copy, with a
// weight drawn from a four-value alphabet within the current batch's
// window; w = 0xff ends the batch instead.
func FuzzKruskalBatch(f *testing.F) {
	f.Add([]byte{4, 0, 0, 1, 0, 1, 2, 0, 0, 2, 1, 2, 3, 3})
	f.Add([]byte{9, 200, 0, 1, 1, 1, 2, 1, 2, 3, 2, 3, 4, 0, 0, 4, 1, 0, 0, 0, 0xff, 5, 6, 3, 6, 7, 3, 7, 8, 2, 0, 8, 0})
	f.Add([]byte{16, 255, 1, 2, 0, 1, 2, 0, 1, 2, 0, 2, 1, 0, 3, 4, 0, 0, 0, 0xff, 0, 0, 0xff, 5, 9, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, copies := 2+int(data[0]%31), 1+int(data[1])
		var batches [][]Edge
		var batch []Edge
		for i := 2; i+2 < len(data); i += 3 {
			u, v, w := int(data[i])%n, int(data[i+1])%n, data[i+2]
			if w == 0xff {
				batches = append(batches, batch)
				batch = nil
				continue
			}
			weight := float64(4*len(batches) + int(w%4))
			for c := 0; c < copies; c++ {
				batch = append(batch, MakeEdge(int32(c*n+u), int32(c*n+v), weight))
			}
		}
		checkBatches(t, n*copies, append(batches, batch))
	})
}
