// Package wspd implements the well-separated pair decomposition of
// Callahan and Kosaraju over a k-d tree (Algorithm 1 of the paper), plus the
// paper's new HDBSCAN* notion of well-separation (Section 3.2.2): a pair is
// well-separated if it is geometrically-separated, mutually-unreachable, or
// both. The mutual-unreachability disjunct lets FindPair terminate earlier,
// bounding the number of pairs (and hence MST candidate edges) by O(n).
package wspd

import (
	"math"

	"parclust/internal/abort"
	"parclust/internal/kdtree"
	"parclust/internal/metric"
	"parclust/internal/parallel"
)

// Pair is a well-separated pair of k-d tree nodes.
type Pair struct {
	A, B *kdtree.Node
}

// Separation decides whether two tree nodes are well-separated.
type Separation interface {
	WellSeparated(a, b *kdtree.Node) bool
}

// Geometric is the classic Callahan–Kosaraju separation with constant s:
// both nodes fit in spheres of radius r = max(radii) and the gap between
// the nodes' bounding spheres is at least s*r. The paper uses s = 2, under
// which this coincides with its "geometrically-separated" condition
// d(A,B) >= max(A_diam, B_diam).
type Geometric struct{ S float64 }

// WellSeparated reports whether a and b satisfy the separation test.
func (g Geometric) WellSeparated(a, b *kdtree.Node) bool {
	r := a.Radius
	if b.Radius > r {
		r = b.Radius
	}
	return sphereGapAtLeast(a, b, g.S*r)
}

// sphereGapAtLeast reports SphereDist(a, b) >= x, evaluated in squared
// space so the hot separation predicates never take a sqrt.
func sphereGapAtLeast(a, b *kdtree.Node, x float64) bool {
	if x <= 0 {
		return true // the sphere gap is clamped at zero
	}
	t := x + a.Radius + b.Radius
	return kdtree.SqCtrDist(a, b) >= t*t
}

// MutualUnreachable is the paper's new disjunctive well-separation for
// HDBSCAN*: geometric separation (s=2) OR mutual unreachability
//
//	max{d(A,B), cdmin(A), cdmin(B)} >= max{A_diam, B_diam, cdmax(A), cdmax(B)}.
//
// Tree nodes must carry core-distance annotations.
type MutualUnreachable struct{}

// WellSeparated reports geometric separation or mutual unreachability.
// Both disjuncts are "sphere gap >= threshold" / "core-dist >= threshold"
// comparisons, so the whole predicate runs sqrt-free in squared space.
func (MutualUnreachable) WellSeparated(a, b *kdtree.Node) bool {
	maxDiam := a.Diam()
	if d := b.Diam(); d > maxDiam {
		maxDiam = d
	}
	if sphereGapAtLeast(a, b, maxDiam) { // geometrically-separated (s = 2)
		return true
	}
	cmin := a.CDMin
	if b.CDMin > cmin {
		cmin = b.CDMin
	}
	rhs := maxDiam
	if a.CDMax > rhs {
		rhs = a.CDMax
	}
	if b.CDMax > rhs {
		rhs = b.CDMax
	}
	// lhs = max(gap, cmin). The gap disjunct is already settled: it failed
	// at threshold maxDiam above, and rhs >= maxDiam makes the same test
	// monotonically stricter, so only the core-distance floor can clear rhs.
	return cmin >= rhs
}

// MetricGeometric is well-separation under an arbitrary metric kernel's
// ball geometry: the kernel gap between the node boxes must be at least
// (S/2) times the larger kernel diameter of the boxes. With S = 2 this is
// d(A,B) >= max(diam(A), diam(B)), the same condition Geometric{S: 2}
// states with L2 bounding spheres — which suffices for the MST-covering
// lemma in any metric space (the cycle-property argument needs only
// "intra-node distances never exceed cross-node distances"), while the
// O(n) pair-count bound additionally requires the kernel to be doubling.
// Node diameters come from the MDiam annotation, so the tree must have
// been built with kdtree.BuildMetric under the same kernel.
type MetricGeometric struct {
	M metric.Metric
	S float64
}

// WellSeparated reports whether a and b satisfy the kernel separation test.
func (g MetricGeometric) WellSeparated(a, b *kdtree.Node) bool {
	diam := math.Max(a.MDiam, b.MDiam)
	return g.M.BoxesLB(a.Box, b.Box) >= g.S/2*diam
}

// MetricMutualUnreachable is the paper's disjunctive HDBSCAN*
// well-separation under an arbitrary metric kernel: kernel-geometric
// separation (s = 2) OR mutual unreachability, with distances taken from
// the kernel's box bounds, node diameters from the MDiam annotation (the
// tree must have been built with kdtree.BuildMetric under the same
// kernel), and core-distance annotations computed under that kernel too.
type MetricMutualUnreachable struct {
	M metric.Metric
}

// WellSeparated reports kernel-geometric separation or mutual unreachability.
func (s MetricMutualUnreachable) WellSeparated(a, b *kdtree.Node) bool {
	d := s.M.BoxesLB(a.Box, b.Box)
	maxDiam := math.Max(a.MDiam, b.MDiam)
	if d >= maxDiam { // geometrically-separated (s = 2)
		return true
	}
	lhs := math.Max(d, math.Max(a.CDMin, b.CDMin))
	rhs := math.Max(maxDiam, math.Max(a.CDMax, b.CDMax))
	return lhs >= rhs
}

// spawnSize is the node size above which traversals spawn goroutines.
const spawnSize = 1024

// Decompose computes the WSPD of the tree (Algorithm 1) and returns all
// pairs. The traversal parallelizes across subtrees; sequential recursion
// appends into one buffer, and at a fork one branch keeps appending to it
// while each other branch fills its own buffer, appended after the join.
// af is an optional cooperative cancellation flag (nil means none), polled
// once per internal tree node and once per spawned FindPair branch; on
// abort the traversal unwinds with abort.Signal{}.
func Decompose(t *kdtree.Tree, sep Separation, af *abort.Flag) []Pair {
	if t.Root == nil || t.Root.Size() <= 1 {
		return nil
	}
	var out []Pair
	wspdNode(t, t.Root, sep, af, &out)
	return out
}

// Count returns the number of WSPD pairs.
func Count(t *kdtree.Tree, sep Separation) int {
	return len(Decompose(t, sep, nil))
}

func wspdNode(t *kdtree.Tree, a *kdtree.Node, sep Separation, af *abort.Flag, out *[]Pair) {
	if a.IsLeaf() || a.Size() <= 1 {
		return
	}
	af.Check()
	al, ar := t.LeftOf(a), t.RightOf(a)
	if a.Size() > spawnSize {
		// Fork the subtree traversals as stealable tasks and keep the
		// FindPair of the split on the current worker (work-first).
		var right, mid []Pair
		var g parallel.Group
		g.Spawn(func() { wspdNode(t, al, sep, af, out) })
		g.Spawn(func() { wspdNode(t, ar, sep, af, &right) })
		g.Run(func() { findPair(t, al, ar, sep, af, &mid) })
		g.Sync()
		*out = append(append(*out, right...), mid...)
		return
	}
	wspdNode(t, al, sep, af, out)
	wspdNode(t, ar, sep, af, out)
	findPair(t, al, ar, sep, af, out)
}

func findPair(t *kdtree.Tree, p, q *kdtree.Node, sep Separation, af *abort.Flag, out *[]Pair) {
	if p.Radius < q.Radius {
		p, q = q, p
	}
	if sep.WellSeparated(p, q) {
		*out = append(*out, Pair{A: p, B: q})
		return
	}
	// Split the node with the larger bounding sphere. With one-point leaves
	// this is never a leaf (a single point has radius 0 and is always
	// well-separated); trees built with larger leaves are rejected.
	if p.IsLeaf() {
		if q.IsLeaf() {
			panic("wspd: leaf-leaf pair not well-separated; build the tree with leaf size 1")
		}
		p, q = q, p
	}
	pl, pr := t.LeftOf(p), t.RightOf(p)
	if p.Size()+q.Size() > spawnSize {
		af.Check()
		var r []Pair
		parallel.Do(
			func() { findPair(t, pl, q, sep, af, out) },
			func() { findPair(t, pr, q, sep, af, &r) },
		)
		*out = append(*out, r...)
		return
	}
	findPair(t, pl, q, sep, af, out)
	findPair(t, pr, q, sep, af, out)
}
