// Package kdtree implements the parallel spatial-median k-d tree used for
// k-NN queries, well-separated pair decomposition, and bichromatic closest
// pair (BCCP/BCCP*) computations (Sections 2.3 and 3 of the paper).
//
// Memory layout. All nodes of a tree live in one slab ([]Node) allocated up
// front and bump-allocated during the parallel build; children are addressed
// by int32 slab indices (resolved with Tree.LeftOf/Tree.RightOf), so a traversal
// never chases individually heap-allocated nodes. Every node's bounding box
// and center share a single contiguous float64 backing array (per-node
// [lo|hi|ctr] blocks), so building a tree performs O(1) heap allocations
// regardless of size. The build also physically permutes the points into
// kd-order — the tree owns a reordered copy of the input rows — which makes
// every leaf scan (k-NN, range, BCCP, Borůvka) run over contiguous memory.
//
// Index spaces. Node-level APIs (Node.Lo/Hi, Tree.Points, BCCP results, the
// Metric interface, RefreshComponentsInto) work in internal kd-order
// positions, which index Tree.Pts directly. The point-query APIs (KNN,
// RangeQuery, RangeCount, CoreDistances, PairDist, AnnotateCoreDists) accept
// and return original input ids; Tree.Orig and Tree.Inv convert between the
// two spaces.
//
// Nodes carry the annotations the paper's algorithms need: bounding
// box/sphere, core-distance bounds for the HDBSCAN* well-separation test,
// and a per-round union-find component label used to filter connected pairs
// in O(1).
//
// Traversals. Each query family has one traversal: k-NN and core
// distances, range query, range count, squared BCCP and Borůvka's
// nearest-outside (NearestOutside). Whether a query runs on float64 rows
// or float32 SoA panels, in squared Euclidean space or under a general
// metric, is decided only by the primitives in scan.go. The generic BCCP
// over the Metric interface serves the non-Euclidean edge metrics.
package kdtree

import (
	"math"
	"sync/atomic"

	"parclust/internal/abort"
	"parclust/internal/geometry"
	"parclust/internal/metric"
	"parclust/internal/parallel"
	"parclust/internal/unionfind"
)

// Node is a k-d tree node owning the kd-order positions [Lo, Hi) of its
// tree. Nodes are values inside the tree's slab; Left/Right are slab
// indices (negative for leaves) resolved through the owning Tree.
type Node struct {
	Lo, Hi      int32
	Left, Right int32 // slab indices of the children; -1 for leaves

	Box    geometry.Box // subslices of the tree's shared geometry backing
	Ctr    []float64    // bounding box center (shared backing)
	Radius float64      // bounding sphere radius (half box diagonal)

	// MDiam upper-bounds the tree-metric distance between any two points
	// of the node (the kernel's box self-diameter). Populated at build
	// time for non-Euclidean trees only; the L2 path uses Radius instead.
	MDiam float64

	// CDMin/CDMax bound the core distances of the node's points; they are
	// populated by Tree.AnnotateCoreDists and are zero otherwise.
	CDMin, CDMax float64

	// Comp is the union-find component shared by every point in the node,
	// or -1 if the points span multiple components. Refreshed per round by
	// Tree.RefreshComponentsInto.
	Comp int32
}

// Size returns the number of points in the node.
func (n *Node) Size() int { return int(n.Hi - n.Lo) }

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return n.Left < 0 }

// Diam returns the diameter of the node's bounding sphere.
func (n *Node) Diam() float64 { return 2 * n.Radius }

// Tree is a spatial-median k-d tree over a point set.
type Tree struct {
	// Pts is the tree-owned copy of the input points, physically permuted
	// into kd-order: position p's coordinates are the contiguous row
	// Pts.Data[p*Dim:(p+1)*Dim], and every node covers a contiguous row
	// range. The caller's point set is never mutated.
	Pts geometry.Points

	// Orig maps kd-order positions to original input ids; Inv is its
	// inverse (Inv[Orig[p]] == p).
	Orig []int32
	Inv  []int32

	Root     *Node
	LeafSize int

	// M is the point-space metric queries run under (never nil). The
	// splitting rule and node boxes are coordinate-based and
	// metric-independent; only query pruning and reported distances depend
	// on M.
	M metric.Metric

	// CoreDist[p] is the core distance of the point at kd-order position p
	// (set by AnnotateCoreDists).
	CoreDist []float64

	nodes  []Node // node slab; bump-allocated, never reallocated
	nalloc atomic.Int32
	geom   []float64 // per-node [box.Lo|box.Hi|ctr] blocks, one allocation

	l2 bool // M is plain Euclidean: queries take the squared-distance fast paths

	// dist64 is the float64 leaf-scan kernel: the comparison-space
	// distance from a coordinate vector to the point at a kd position.
	// It is the squared-Euclidean kernel monomorphized for the dimension
	// on L2 trees and M.Dist otherwise, selected once at build.
	dist64 func(qc []float64, p int32) float64

	// f32 is the opt-in float32 SoA representation (nil by default); when
	// set, queries take the lane-scan fast paths. See EnableFloat32.
	f32 *F32

	// af is the build-time cancellation flag (nil outside BuildMetricCancel);
	// t.build polls it once per node.
	af *abort.Flag
}

// buildGrain is the subproblem size below which build recursion is sequential.
const buildGrain = 2048

// BuildMetric constructs the tree in parallel with queries running under
// metric m. leafSize <= 1 yields one point per leaf, which the WSPD
// construction requires.
func BuildMetric(pts geometry.Points, leafSize int, m metric.Metric) *Tree {
	return BuildMetricCancel(pts, leafSize, m, nil)
}

// BuildMetricCancel is BuildMetric with a cooperative cancellation flag:
// the build polls af once per tree node and unwinds by panicking with
// abort.Signal{} when it is set (recovered at the stage-build boundary in
// internal/engine). af may be nil, which costs one branch per node.
func BuildMetricCancel(pts geometry.Points, leafSize int, m metric.Metric, af *abort.Flag) *Tree {
	if leafSize < 1 {
		leafSize = 1
	}
	n := pts.N
	t := &Tree{
		Pts:      geometry.Points{Data: append([]float64(nil), pts.Data...), N: n, Dim: pts.Dim},
		Orig:     make([]int32, n),
		Inv:      make([]int32, n),
		LeafSize: leafSize,
		M:        m,
		l2:       metric.IsL2(m),
	}
	t.dist64 = kernel64(t.Pts, m)
	for i := range t.Orig {
		t.Orig[i] = int32(i)
	}
	if n > 0 {
		// A tree over n points has at most 2n-1 nodes (every split yields
		// two non-empty children), so one slab covers any build. Unused
		// slab tail pages are touched only by make's zeroing.
		maxNodes := 2*n - 1
		t.nodes = make([]Node, maxNodes)
		t.geom = make([]float64, maxNodes*3*pts.Dim)
		t.af = af
		t.Root = &t.nodes[t.build(0, int32(n))]
		t.af = nil
		parallel.For(n, 4096, func(i int) {
			t.Inv[t.Orig[i]] = int32(i)
		})
	}
	return t
}

// LeftOf returns n's left child (n must not be a leaf).
func (t *Tree) LeftOf(n *Node) *Node { return &t.nodes[n.Left] }

// RightOf returns n's right child (n must not be a leaf).
func (t *Tree) RightOf(n *Node) *Node { return &t.nodes[n.Right] }

// IsL2 reports whether the tree's metric is plain Euclidean.
func (t *Tree) IsL2() bool { return t.l2 }

// kernel64 selects the float64 leaf-scan kernel of a tree over pts under m.
func kernel64(pts geometry.Points, m metric.Metric) func(qc []float64, p int32) float64 {
	if metric.IsL2(m) {
		return geometry.SqDistRowKernel(pts)
	}
	data, d := pts.Data, pts.Dim
	return func(qc []float64, p int32) float64 {
		r := int(p) * d
		return m.Dist(qc, data[r:r+d:r+d])
	}
}

// PairDist returns the tree-metric distance between the points with
// original ids i and j.
func (t *Tree) PairDist(i, j int32) float64 {
	pi, pj := int(t.Inv[i]), int(t.Inv[j])
	if t.l2 {
		return math.Sqrt(t.Pts.SqDist(pi, pj))
	}
	return t.M.Dist(t.Pts.At(pi), t.Pts.At(pj))
}

// newNode bump-allocates a node from the slab and wires its geometry block.
// The slab index order depends on the parallel schedule, but tree structure,
// node contents, and every query result do not.
func (t *Tree) newNode(lo, hi int32) int32 {
	idx := t.nalloc.Add(1) - 1
	nd := &t.nodes[idx]
	dim := t.Pts.Dim
	off := int(idx) * 3 * dim
	nd.Lo, nd.Hi = lo, hi
	nd.Left, nd.Right = -1, -1
	nd.Comp = -1
	nd.Box = geometry.Box{
		Lo: t.geom[off : off+dim : off+dim],
		Hi: t.geom[off+dim : off+2*dim : off+2*dim],
	}
	nd.Ctr = t.geom[off+2*dim : off+3*dim : off+3*dim]
	return idx
}

func (t *Tree) build(lo, hi int32) int32 {
	t.af.Check()
	idx := t.newNode(lo, hi)
	n := &t.nodes[idx]
	geometry.BoundingBoxRange(&n.Box, t.Pts, int(lo), int(hi))
	n.Box.Center(n.Ctr)
	n.Radius = n.Box.Radius()
	if !t.l2 {
		n.MDiam = t.M.BoxesUB(n.Box, n.Box)
	}
	if int(hi-lo) <= t.LeafSize {
		return idx
	}
	dim, width := n.Box.WidestDim()
	mid := t.partition(lo, hi, dim, width, n.Box)
	if int(hi-lo) > buildGrain {
		var l, r int32
		parallel.Do(
			func() { l = t.build(lo, mid) },
			func() { r = t.build(mid, hi) },
		)
		n.Left, n.Right = l, r
	} else {
		n.Left = t.build(lo, mid)
		n.Right = t.build(mid, hi)
	}
	return idx
}

// partition splits the rows [lo, hi) around the spatial median of dim,
// physically swapping point rows (and their Orig labels) so each side ends
// up contiguous. Degenerate splits (all points on one side, e.g. duplicate
// coordinates) fall back to an index-median split so recursion always
// terminates.
func (t *Tree) partition(lo, hi int32, dim int, width float64, box geometry.Box) int32 {
	if width <= 0 {
		return (lo + hi) / 2
	}
	pivot := (box.Lo[dim] + box.Hi[dim]) / 2
	i, j := lo, hi-1
	for i <= j {
		for i <= j && t.coord(i, dim) < pivot {
			i++
		}
		for i <= j && t.coord(j, dim) >= pivot {
			j--
		}
		if i < j {
			t.swapRows(i, j)
			i++
			j--
		}
	}
	if i == lo || i == hi { // degenerate: spatial median separates nothing
		return (lo + hi) / 2
	}
	return i
}

func (t *Tree) swapRows(i, j int32) {
	d := t.Pts.Dim
	a := t.Pts.Data[int(i)*d : int(i)*d+d : int(i)*d+d]
	b := t.Pts.Data[int(j)*d : int(j)*d+d : int(j)*d+d]
	for k := 0; k < d; k++ {
		a[k], b[k] = b[k], a[k]
	}
	t.Orig[i], t.Orig[j] = t.Orig[j], t.Orig[i]
}

func (t *Tree) coord(p int32, dim int) float64 {
	return t.Pts.Data[int(p)*t.Pts.Dim+dim]
}

// AnnotateCoreDists stores the per-point core distances and fills each
// node's CDMin/CDMax bottom-up (used by the HDBSCAN* well-separation
// predicate). cd is in original id order, as returned by CoreDistances;
// the tree keeps the kd-order copy in t.CoreDist.
func (t *Tree) AnnotateCoreDists(cd []float64) {
	if cap(t.CoreDist) < t.Pts.N {
		t.CoreDist = make([]float64, t.Pts.N)
	}
	t.CoreDist = t.CoreDist[:t.Pts.N]
	parallel.For(t.Pts.N, 4096, func(p int) {
		t.CoreDist[p] = cd[t.Orig[p]]
	})
	if t.Root != nil {
		t.annotateCD(t.Root)
	}
}

// annotateCD keeps the parallel fork in a separate function
// (annotateCDPar) so the sequential recursion allocates no closure cells.
func (t *Tree) annotateCD(n *Node) (lo, hi float64) {
	if n.IsLeaf() {
		lo, hi = math.Inf(1), math.Inf(-1)
		for p := n.Lo; p < n.Hi; p++ {
			c := t.CoreDist[p]
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		n.CDMin, n.CDMax = lo, hi
		return lo, hi
	}
	if n.Size() > buildGrain {
		return t.annotateCDPar(n)
	}
	llo, lhi := t.annotateCD(t.LeftOf(n))
	rlo, rhi := t.annotateCD(t.RightOf(n))
	n.CDMin, n.CDMax = math.Min(llo, rlo), math.Max(lhi, rhi)
	return n.CDMin, n.CDMax
}

func (t *Tree) annotateCDPar(n *Node) (lo, hi float64) {
	var llo, lhi, rlo, rhi float64
	parallel.Do(
		func() { llo, lhi = t.annotateCD(t.LeftOf(n)) },
		func() { rlo, rhi = t.annotateCD(t.RightOf(n)) },
	)
	n.CDMin, n.CDMax = math.Min(llo, rlo), math.Max(lhi, rhi)
	return n.CDMin, n.CDMax
}

// RefreshComponentsInto recomputes every node's Comp label from the
// union-find structure: the common component of the node's points, or -1 if
// mixed. One O(n) pass per Kruskal round (the paper's f_diff filter
// support). The union-find runs over kd-order positions; the per-position
// component labels are written into comp (len comp must be the point
// count), which is returned. It allocates nothing.
func (t *Tree) RefreshComponentsInto(uf *unionfind.UF, comp []int32) []int32 {
	if t.Root == nil {
		return comp
	}
	for i := range comp {
		comp[i] = uf.Find(int32(i))
	}
	t.refreshComp(t.Root, comp)
	return comp
}

// refreshComp keeps the parallel fork in a separate function
// (refreshCompPar) so the sequential recursion — the per-round hot path —
// allocates no closure cells.
func (t *Tree) refreshComp(n *Node, comp []int32) int32 {
	if n.IsLeaf() {
		c := comp[n.Lo]
		for p := n.Lo + 1; p < n.Hi; p++ {
			if comp[p] != c {
				c = -1
				break
			}
		}
		n.Comp = c
		return c
	}
	if n.Size() > buildGrain {
		return t.refreshCompPar(n, comp)
	}
	cl := t.refreshComp(t.LeftOf(n), comp)
	cr := t.refreshComp(t.RightOf(n), comp)
	if cl >= 0 && cl == cr {
		n.Comp = cl
	} else {
		n.Comp = -1
	}
	return n.Comp
}

func (t *Tree) refreshCompPar(n *Node, comp []int32) int32 {
	var cl, cr int32
	parallel.Do(
		func() { cl = t.refreshComp(t.LeftOf(n), comp) },
		func() { cr = t.refreshComp(t.RightOf(n), comp) },
	)
	if cl >= 0 && cl == cr {
		n.Comp = cl
	} else {
		n.Comp = -1
	}
	return n.Comp
}

// SqCtrDist returns the squared distance between the bounding-sphere
// centers of a and b — the sqrt-free ingredient of sphere-gap tests.
func SqCtrDist(a, b *Node) float64 {
	var s float64
	for k := range a.Ctr {
		d := a.Ctr[k] - b.Ctr[k]
		s += d * d
	}
	return s
}

// SphereDist returns the paper's d(A,B): the minimum distance between the
// bounding spheres of a and b (clamped at zero).
func SphereDist(a, b *Node) float64 {
	d := math.Sqrt(SqCtrDist(a, b)) - a.Radius - b.Radius
	if d < 0 {
		return 0
	}
	return d
}

// BoxDist returns the minimum distance between the bounding boxes of a and b,
// a tighter (and descent-monotone) lower bound on point distances.
func BoxDist(a, b *Node) float64 {
	return math.Sqrt(geometry.SqDistBoxes(a.Box, b.Box))
}

// BoxMaxDist returns the maximum distance between the bounding boxes of a
// and b, an upper bound on point distances.
func BoxMaxDist(a, b *Node) float64 {
	return math.Sqrt(geometry.SqMaxDistBoxes(a.Box, b.Box))
}
