package mst

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"parclust/internal/generator"
	"parclust/internal/geometry"
	"parclust/internal/kdtree"
	"parclust/internal/metric"
	"parclust/internal/unionfind"
)

// brutePairsRef is the full brute-force scan brutePairs replaced: every
// cross-component pair's exact squared weight is computed and tested
// against the window. brutePairs must emit the same edges in the same
// order.
func brutePairsRef(r *memoRun, p, q *kdtree.Node, rhoLo, rhoHi float64, out *[]Edge) {
	pts := r.Tree.Pts
	for u := p.Lo; u < p.Hi; u++ {
		uc, cu := pts.At(int(u)), r.comp[u]
		var cu2 float64
		if r.cd != nil {
			cu2 = r.cd[u] * r.cd[u]
		}
		for v := q.Lo; v < q.Hi; v++ {
			if r.comp[v] == cu {
				continue
			}
			w := geometry.SqDistVec(uc, pts.At(int(v)))
			if r.cd != nil {
				if cu2 > w {
					w = cu2
				}
				if cv2 := r.cd[v] * r.cd[v]; cv2 > w {
					w = cv2
				}
			}
			if w >= rhoLo && w < rhoHi {
				*out = append(*out, r.edge(u, v, w))
			}
		}
	}
}

// bruteTestPoints returns n clustered points in dim dimensions on a coarse
// grid, so many pairs tie on distance, with every fifth row a copy of an
// earlier one.
func bruteTestPoints(n, dim int, seed int64) geometry.Points {
	pts := generator.Embed(n, dim, 4, seed)
	for i := range pts.Data {
		pts.Data[i] = math.Round(pts.Data[i]*8) / 8
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 5; i < n; i += 5 {
		copy(pts.At(i), pts.At(rng.Intn(i)))
	}
	return pts
}

// bruteNodePairs returns node pairs of the subtree at n that fit a
// brute-force scan: the two children of every node of at most bruteSize
// points, as MemoGFK meets them, and, from every sibling pair, each child
// with a grandchild of the other, reaching across a split.
func bruteNodePairs(t *kdtree.Tree, n *kdtree.Node, out [][2]*kdtree.Node) [][2]*kdtree.Node {
	if n.IsLeaf() {
		return out
	}
	l, r := t.LeftOf(n), t.RightOf(n)
	if n.Size() <= bruteSize {
		out = append(out, [2]*kdtree.Node{l, r})
		for _, c := range [][2]*kdtree.Node{{l, r}, {r, l}} {
			if !c[1].IsLeaf() {
				out = append(out, [2]*kdtree.Node{c[0], t.LeftOf(c[1])}, [2]*kdtree.Node{c[0], t.RightOf(c[1])})
			}
		}
	}
	return bruteNodePairs(t, r, bruteNodePairs(t, l, out))
}

// windowEnds returns the candidate window ends for the node pair (p, q):
// 0, +Inf, and every exact squared weight, plain squared distance and
// squared core distance of the pair's points, sorted and deduplicated.
func windowEnds(r *memoRun, p, q *kdtree.Node) []float64 {
	ends := []float64{0, math.Inf(1)}
	for u := p.Lo; u < p.Hi; u++ {
		for v := q.Lo; v < q.Hi; v++ {
			ends = append(ends, r.exactSqWeight(u, v), geometry.SqDistVec(r.Tree.Pts.At(int(u)), r.Tree.Pts.At(int(v))))
		}
	}
	for _, n := range []*kdtree.Node{p, q} {
		for u := n.Lo; u < n.Hi && r.cd != nil; u++ {
			ends = append(ends, r.cd[u]*r.cd[u])
		}
	}
	slices.Sort(ends)
	return slices.Compact(ends)
}

// TestBrutePairsMatchesFullScan compares MemoGFK's window-bounded
// brute-force scan with the full scan on small node pairs of float32 trees
// in dimensions 2, 3, 16 and 33, for EMST and for mutual reachability. The
// points have duplicates and tied distances, most pairs share a component
// label, and the window ends are exact pair weights, plain squared
// distances and squared core distances, so every rejection test meets its
// threshold with equality somewhere.
func TestBrutePairsMatchesFullScan(t *testing.T) {
	for _, dim := range []int{2, 3, 16, 33} {
		pts := bruteTestPoints(300, dim, int64(dim))
		tr := kdtree.BuildMetric(pts, 1, metric.L2{})
		if err := tr.EnableFloat32(); err != nil {
			t.Fatal(err)
		}
		tr.AnnotateCoreDists(tr.CoreDistances(10))
		rng := rand.New(rand.NewSource(int64(dim)))
		comp := make([]int32, pts.N)
		for i := range comp {
			comp[i] = int32(rng.Intn(3))
		}
		pairs := bruteNodePairs(tr, tr.Root, nil)
		for _, m := range []kdtree.Metric{kdtree.NewEuclidean(tr), kdtree.NewMutualReachability(tr)} {
			r := newMemoRun(Config{Tree: tr, Metric: m}, comp)
			if !r.brute {
				t.Fatalf("dim=%d %T: the run does not take the brute-force scan", dim, m)
			}
			emitted := 0
			for _, pq := range pairs {
				p, q := pq[0], pq[1]
				ends := windowEnds(r, p, q)
				for w := 0; w < 4; w++ {
					i, j := rng.Intn(len(ends)), rng.Intn(len(ends))
					if i == j {
						continue
					}
					lo, hi := ends[min(i, j)], ends[max(i, j)]
					var got, want []Edge
					r.brutePairs(p, q, lo, hi, &got)
					brutePairsRef(r, p, q, lo, hi, &want)
					if !slices.Equal(got, want) {
						t.Fatalf("dim=%d %T nodes [%d,%d)x[%d,%d) window [%v, %v): got %v, want %v",
							dim, m, p.Lo, p.Hi, q.Lo, q.Hi, lo, hi, got, want)
					}
					emitted += len(want)
				}
			}
			if emitted == 0 {
				t.Fatalf("dim=%d %T: no window emitted an edge", dim, m)
			}
			t.Logf("dim=%d %T: %d edges compared", dim, m, emitted)
		}
	}
}

// forestRef is blockForest from its definition: a Kruskal pass over the
// block's edges in Less order, on a union-find whose vertices are the
// component labels.
func forestRef(comp []int32, es []Edge) []Edge {
	es = slices.Clone(es)
	slices.SortFunc(es, Compare)
	parent := map[int32]int32{}
	find := func(x int32) int32 {
		for {
			p, ok := parent[x]
			if !ok {
				return x
			}
			x = p
		}
	}
	var out []Edge
	for _, e := range es {
		if a, b := find(comp[e.U]), find(comp[e.V]); a != b {
			parent[a] = b
			out = append(out, e)
		}
	}
	return out
}

// labelSeededUF returns a union-find over the positions of comp in which
// positions with equal labels are already joined, as the round-start
// union-find joins each component.
func labelSeededUF(comp []int32) *unionfind.UF {
	uf := unionfind.New(len(comp))
	first := map[int32]int32{}
	for i, l := range comp {
		if f, ok := first[l]; ok {
			uf.Union(f, int32(i))
		} else {
			first[l] = int32(i)
		}
	}
	return uf
}

// checkBlockForest runs blockForest on a copy of the block edges es of
// (p, q) and fails unless it keeps forestRef's edges, and unless
// KruskalBatch, from a label-seeded union-find, accepts the same edges in
// the same order from the forest as from all of es. It returns how many
// edges the forest kept.
func checkBlockForest(t *testing.T, r *memoRun, p, q *kdtree.Node, es []Edge) int {
	t.Helper()
	forest := slices.Clone(es)
	forest = forest[:r.blockForest(p, q, forest)]
	if want := forestRef(r.comp, es); !slices.Equal(slices.SortedFunc(slices.Values(forest), Compare), want) {
		t.Fatalf("nodes [%d,%d)x[%d,%d): forest %v, want %v", p.Lo, p.Hi, q.Lo, q.Hi, forest, want)
	}
	got := KruskalBatch(forest, labelSeededUF(r.comp), nil)
	want := KruskalBatch(slices.Clone(es), labelSeededUF(r.comp), nil)
	if !slices.Equal(got, want) {
		t.Fatalf("nodes [%d,%d)x[%d,%d): Kruskal accepts %v from the forest, %v from the scan", p.Lo, p.Hi, q.Lo, q.Hi, got, want)
	}
	return len(forest)
}

// TestBlockForest checks blockForest on the brute-force scans of small
// node pairs of float32 trees, for EMST and mutual reachability, with 3,
// 40 and all-distinct component labels: it keeps what a Kruskal pass over
// the labels keeps, and Kruskal accepts from the forest what it accepts
// from the whole scan.
func TestBlockForest(t *testing.T) {
	for _, dim := range []int{2, 16} {
		pts := bruteTestPoints(300, dim, int64(dim))
		tr := kdtree.BuildMetric(pts, 1, metric.L2{})
		if err := tr.EnableFloat32(); err != nil {
			t.Fatal(err)
		}
		tr.AnnotateCoreDists(tr.CoreDistances(10))
		pairs := bruteNodePairs(tr, tr.Root, nil)
		rng := rand.New(rand.NewSource(int64(dim)))
		for _, labels := range []int{3, 40, pts.N} {
			comp := make([]int32, pts.N)
			for i := range comp {
				comp[i] = int32(rng.Intn(labels))
			}
			for _, m := range []kdtree.Metric{kdtree.NewEuclidean(tr), kdtree.NewMutualReachability(tr)} {
				r := newMemoRun(Config{Tree: tr, Metric: m}, comp)
				scanned, kept := 0, 0
				for _, pq := range pairs {
					p, q := pq[0], pq[1]
					ends := windowEnds(r, p, q)
					for w := 0; w < 3; w++ {
						i, j := rng.Intn(len(ends)), rng.Intn(len(ends))
						var es []Edge
						r.brutePairs(p, q, ends[min(i, j)], ends[max(i, j)], &es)
						kept += checkBlockForest(t, r, p, q, es)
						scanned += len(es)
					}
				}
				if kept == 0 || kept == scanned {
					t.Fatalf("dim=%d labels=%d %T: the forests kept %d of %d edges", dim, labels, m, kept, scanned)
				}
				t.Logf("dim=%d labels=%d %T: the forests kept %d of %d edges", dim, labels, m, kept, scanned)
			}
		}
	}
}

// FuzzBlockForest checks blockForest on blocks decoded from the fuzz
// input. data[0] and data[1] size the nodes p and q (together at most
// bruteSize points), data[2] orders them in kd order and sets the label
// alphabet: few labels repeat within and across the nodes, so many points
// are joined before the block is. Each label byte then follows, one per
// point; each later (u, v, w) triple adds the edge between p's point u and
// q's point v, with one of four weights, so most edges tie, unless the two
// share a label or the pair has an edge already.
func FuzzBlockForest(f *testing.F) {
	f.Add([]byte{3, 3, 0, 0, 1, 2, 0, 1, 2, 0, 0, 1, 1, 1, 0, 2, 2, 2})
	f.Add([]byte{8, 8, 0x13, 0, 0, 1, 1, 2, 2, 3, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 0, 0, 1, 1, 0, 2, 2, 1, 7, 7, 3, 3, 4, 0})
	f.Add([]byte{31, 33, 0xff, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		np := 1 + int(data[0])%(bruteSize-1)
		nq := 1 + int(data[1])%(bruteSize-np)
		alphabet := 1 + int(data[2]>>1)%(np+nq)
		pLo, qLo := int32(0), int32(np+5) // a gap between the nodes
		if data[2]&1 == 1 {
			pLo, qLo = int32(nq+5), 0
		}
		p := &kdtree.Node{Lo: pLo, Hi: pLo + int32(np)}
		q := &kdtree.Node{Lo: qLo, Hi: qLo + int32(nq)}
		comp := make([]int32, max(p.Hi, q.Hi))
		for i := range comp {
			comp[i] = int32(1000 + i) // positions outside both nodes
		}
		rest := data[3:]
		for _, n := range []*kdtree.Node{p, q} {
			for u := n.Lo; u < n.Hi; u++ {
				if len(rest) > 0 {
					comp[u] = int32(int(rest[0]) % alphabet)
					rest = rest[1:]
				}
			}
		}
		var es []Edge
		var seen [bruteSize][bruteSize]bool
		for i := 0; i+2 < len(rest); i += 3 {
			a, b := int(rest[i])%np, int(rest[i+1])%nq
			u, v := p.Lo+int32(a), q.Lo+int32(b)
			// As in brutePairs, which meets each pair once and skips
			// joined ones.
			if !seen[a][b] && comp[u] != comp[v] {
				seen[a][b] = true
				es = append(es, MakeEdge(u, v, float64(rest[i+2]%4)))
			}
		}
		checkBlockForest(t, &memoRun{comp: comp}, p, q, es)
	})
}
