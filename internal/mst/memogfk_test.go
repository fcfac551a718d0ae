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
