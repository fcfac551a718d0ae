package kdtree

import (
	"math"

	"parclust/internal/geometry"
)

// BCCPResult is the bichromatic closest pair between two tree nodes under a
// metric: kd-order positions U in A and V in B minimizing the metric, with
// distance W. Map positions through Tree.Orig for original ids.
type BCCPResult struct {
	U, V int32
	W    float64
}

// BCCP computes the bichromatic closest pair between nodes a and b of tree t
// under metric m (Section 2.3). With the MutualReachability metric this is
// the paper's BCCP*. The traversal prunes node pairs whose lower bound
// cannot beat the best pair found so far and descends nearer pairs first.
// The Euclidean metric on an L2 tree runs the squared traversal of BCCPSq,
// which compares squared distances and never crosses an interface in its
// leaf loops; with the kd-ordered layout both sides of a leaf-leaf scan are
// contiguous row blocks.
func BCCP(t *Tree, m Metric, a, b *Node) BCCPResult {
	if _, ok := m.(Euclidean); ok && t.l2 {
		best := BCCPSq(t, nil, a, b)
		best.W = math.Sqrt(best.W)
		return best
	}
	best := BCCPResult{U: -1, V: -1, W: math.Inf(1)}
	bccp(t, m, a, b, m.NodeLB(a, b), &best)
	return best
}

// BCCPSq computes the bichromatic closest pair between a and b of an L2
// tree in squared space: under plain squared Euclidean distance when cd is
// nil, or under squared mutual reachability max{d², cd[p]², cd[q]²} when cd
// holds the kd-order core distances (node CDMin/CDMax annotations must be
// set). The returned W is the squared-space weight; callers needing the
// true metric weight evaluate their metric on (U, V). Squaring is
// monotone, so the traversal order and the resulting pair match the
// generic traversal exactly.
func BCCPSq(t *Tree, cd []float64, a, b *Node) BCCPResult {
	var s sqBCCP // filled in place: the query's scan buffer makes a copy costly
	s.t, s.cd = t, cd
	s.best = BCCPResult{U: -1, V: -1, W: math.Inf(1)}
	t.at(&s.q, a.Lo) // sets the dtype; the leaf scans move it to each point
	lb := geometry.SqDistBoxes(a.Box, b.Box)
	if cd != nil {
		lb = cdLB(lb, a, b)
	}
	s.run(a, b, lb)
	return s.best
}

// sqBCCP is one squared BCCP search.
type sqBCCP struct {
	t    *Tree
	cd   []float64 // kd-order core distances; nil for plain Euclidean
	best BCCPResult
	q    query
}

// run searches the node pair (a, b), whose squared lower bound lb the
// caller has already computed for child ordering, so each node pair
// evaluates its O(dim) bound exactly once. Where both nodes stop the
// descent, every point of a is the query of a leaf scan over b.
func (s *sqBCCP) run(a, b *Node, lb float64) {
	if lb >= s.best.W {
		return
	}
	t, q, cd := s.t, &s.q, s.cd
	stopA, stopB := t.stop(q, a), t.stop(q, b)
	if stopA && stopB {
		for p := a.Lo; p < a.Hi; p++ {
			t.at(q, p)
			var cp2 float64
			if cd != nil {
				cp2 = cd[p] * cd[p]
			}
			for lo := b.Lo; lo < b.Hi; {
				e := t.scan(q, lo, b.Hi)
				for x := lo; x < e; x++ {
					if x == p {
						continue
					}
					w := t.dist(q, x, lo)
					if cd != nil {
						if cp2 > w {
							w = cp2
						}
						if cx2 := cd[x] * cd[x]; cx2 > w {
							w = cx2
						}
					}
					if w < s.best.W {
						s.best = BCCPResult{U: p, V: x, W: w}
					}
				}
				lo = e
			}
		}
		return
	}
	// Split the node with the larger bounding sphere (matching FindPair's
	// convention); descend the nearer child pair first for tighter pruning.
	if stopB || (!stopA && a.Radius >= b.Radius) {
		l, r := t.LeftOf(a), t.RightOf(a)
		d1, d2 := geometry.SqDistBoxes(l.Box, b.Box), geometry.SqDistBoxes(r.Box, b.Box)
		if cd != nil {
			d1, d2 = cdLB(d1, l, b), cdLB(d2, r, b)
		}
		if d1 <= d2 {
			s.run(l, b, d1)
			s.run(r, b, d2)
		} else {
			s.run(r, b, d2)
			s.run(l, b, d1)
		}
		return
	}
	l, r := t.LeftOf(b), t.RightOf(b)
	d1, d2 := geometry.SqDistBoxes(a.Box, l.Box), geometry.SqDistBoxes(a.Box, r.Box)
	if cd != nil {
		d1, d2 = cdLB(d1, a, l), cdLB(d2, a, r)
	}
	if d1 <= d2 {
		s.run(a, l, d1)
		s.run(a, r, d2)
	} else {
		s.run(a, r, d2)
		s.run(a, l, d1)
	}
}

// cdLB raises the squared box distance s of (a, b) to the squared
// mutual-reachability node lower bound max{s, max(CDMin)²}. For trees
// without core-distance annotations (CDMin zero) it leaves s unchanged.
func cdLB(s float64, a, b *Node) float64 {
	c := a.CDMin
	if b.CDMin > c {
		c = b.CDMin
	}
	if c2 := c * c; c2 > s {
		return c2
	}
	return s
}

// SqMutNodeLBBounded is the squared mutual-reachability node lower bound
// with an early exit once the bound is reached (see
// geometry.SqDistBoxesBounded): the result is exact below bound and
// otherwise only certifies lb >= bound. The core-distance term
// is O(1) and checked first, so far-apart node pairs skip most of the
// O(dim) box scan.
func SqMutNodeLBBounded(a, b *Node, bound float64) float64 {
	c := a.CDMin
	if b.CDMin > c {
		c = b.CDMin
	}
	c2 := c * c
	if c2 >= bound {
		return c2
	}
	if s := geometry.SqDistBoxesBounded(a.Box, b.Box, bound); s > c2 {
		return s
	}
	return c2
}

// SqMutNodeUBBounded is the squared mutual-reachability node upper bound
// max{boxmaxdist², max(CDMax)²} with the same early-exit contract.
func SqMutNodeUBBounded(a, b *Node, bound float64) float64 {
	c := a.CDMax
	if b.CDMax > c {
		c = b.CDMax
	}
	c2 := c * c
	if c2 >= bound {
		return c2
	}
	if s := geometry.SqMaxDistBoxesBounded(a.Box, b.Box, bound); s > c2 {
		return s
	}
	return c2
}

func bccp(t *Tree, m Metric, a, b *Node, lb float64, best *BCCPResult) {
	if lb >= best.W {
		return
	}
	if a.IsLeaf() && b.IsLeaf() {
		for p := a.Lo; p < a.Hi; p++ {
			for q := b.Lo; q < b.Hi; q++ {
				if p == q {
					continue
				}
				if d := m.Dist(p, q); d < best.W {
					*best = BCCPResult{U: p, V: q, W: d}
				}
			}
		}
		return
	}
	// Split the node with the larger bounding sphere (matching FindPair's
	// convention); descend the nearer child pair first for tighter pruning.
	if b.IsLeaf() || (!a.IsLeaf() && a.Radius >= b.Radius) {
		al, ar := t.LeftOf(a), t.RightOf(a)
		d1 := m.NodeLB(al, b)
		d2 := m.NodeLB(ar, b)
		if d1 <= d2 {
			bccp(t, m, al, b, d1, best)
			bccp(t, m, ar, b, d2, best)
		} else {
			bccp(t, m, ar, b, d2, best)
			bccp(t, m, al, b, d1, best)
		}
		return
	}
	bl, br := t.LeftOf(b), t.RightOf(b)
	d1 := m.NodeLB(a, bl)
	d2 := m.NodeLB(a, br)
	if d1 <= d2 {
		bccp(t, m, a, bl, d1, best)
		bccp(t, m, a, br, d2, best)
	} else {
		bccp(t, m, a, br, d2, best)
		bccp(t, m, a, bl, d1, best)
	}
}
