package dendrogram

import (
	"math/rand"
	"slices"
	"testing"

	"parclust/internal/mst"
)

// TestVertexDistancesClosedForm checks the search against depths known in
// closed form: on a path of 100,000 vertices from its middle, the deepest
// tree of that size, and on a star from its hub and from two leaves.
func TestVertexDistancesClosedForm(t *testing.T) {
	const n = 100_000
	path := make([]mst.Edge, 0, n-1)
	for i := 1; i < n; i++ {
		path = append(path, mst.MakeEdge(int32(i-1), int32(i), 1))
	}
	s := int32(n / 2)
	for v, d := range VertexDistances(n, path, s) {
		if want := max(int32(v)-s, s-int32(v)); d != want {
			t.Fatalf("path, s=%d: depth[%d] = %d, want %d", s, v, d, want)
		}
	}

	const hub, leaves = 3, 999
	star := make([]mst.Edge, 0, leaves)
	for v := int32(0); v <= leaves; v++ {
		if v != hub {
			star = append(star, mst.MakeEdge(hub, v, 1))
		}
	}
	for _, s := range []int32{hub, 0, leaves} {
		for v, d := range VertexDistances(leaves+1, star, s) {
			want := int32(2)
			switch {
			case int32(v) == s:
				want = 0
			case int32(v) == hub || s == hub:
				want = 1
			}
			if d != want {
				t.Fatalf("star, s=%d: depth[%d] = %d, want %d", s, v, d, want)
			}
		}
	}
}

// TestVertexDistancesMatchesBFS compares the search with a plain
// breadth-first search over adjacency lists on random trees.
func TestVertexDistancesMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 10, 200, 5000} {
		edges := make([]mst.Edge, 0, n-1)
		for i := 1; i < n; i++ {
			edges = append(edges, mst.MakeEdge(int32(rng.Intn(i)), int32(i), 1))
		}
		s := int32(rng.Intn(n))
		adj := make([][]int32, n)
		for _, e := range edges {
			adj[e.U] = append(adj[e.U], e.V)
			adj[e.V] = append(adj[e.V], e.U)
		}
		want := make([]int32, n)
		for i := range want {
			want[i] = -1
		}
		want[s] = 0
		for queue := []int32{s}; len(queue) > 0; queue = queue[1:] {
			v := queue[0]
			for _, w := range adj[v] {
				if want[w] < 0 {
					want[w] = want[v] + 1
					queue = append(queue, w)
				}
			}
		}
		if got := VertexDistances(n, edges, s); !slices.Equal(got, want) {
			t.Fatalf("n=%d s=%d: depths differ from BFS\n got %v\nwant %v", n, s, got, want)
		}
	}
}

// TestVertexDistancesAllocs pins the search's allocations to the same four
// for every n: offsets, adjacency, depths and queue.
func TestVertexDistancesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	for _, n := range []int{2, 1000, 100_000} {
		edges := randTree(n, int64(n))
		allocs := testing.AllocsPerRun(5, func() { VertexDistances(n, edges, int32(n/3)) })
		if allocs != 4 {
			t.Errorf("n=%d: VertexDistances allocated %v times, want 4", n, allocs)
		}
	}
}
