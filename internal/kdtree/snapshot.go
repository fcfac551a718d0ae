package kdtree

import (
	"encoding/binary"
	"fmt"
	"math"

	"parclust/internal/geometry"
	"parclust/internal/metric"
)

// Arena serialization: the tree's slab layout (one []Node slab addressed by
// int32 indices, one contiguous geometry backing, a physically permuted
// point copy) is written out as-is, so a snapshot load is a bulk copy plus
// pointer rewiring instead of a rebuild. The kd-order point rows are NOT
// part of the encoding — they are recoverable exactly from the original
// point set through the Orig permutation — and neither are the transient
// per-run annotations (CoreDist, CDMin/CDMax, Comp), which belong to
// whichever MST run is in flight, not to the tree.
//
// Layout (all little-endian, sizes derived from the caller-provided point
// set):
//
//	uint32              leafSize
//	int32               nalloc     number of allocated slab nodes
//	int32               root       slab index of the root (-1 when empty)
//	[n]int32            Orig       kd-order position -> original id
//	[nalloc]node        Lo, Hi, Left, Right int32; Radius, MDiam float64
//	[nalloc*3*dim]f64   geom       per-node [box.Lo | box.Hi | ctr] blocks
//
// DecodeSnapshot validates every structural invariant the query paths rely
// on (permutation bijectivity, child ordering, contiguous child partitions)
// and returns an error — never panics — on malformed input.

// snapNodeBytes is the wire size of one node record.
const snapNodeBytes = 4*4 + 8*2

// SnapshotSize returns the exact encoded size of AppendSnapshot's output.
func (t *Tree) SnapshotSize() int {
	nalloc := int(t.nalloc.Load())
	return 4 + 4 + 4 + 4*len(t.Orig) + nalloc*snapNodeBytes + 8*nalloc*3*t.Pts.Dim
}

// AppendSnapshot appends the tree's arena encoding to buf and returns the
// extended slice.
func (t *Tree) AppendSnapshot(buf []byte) []byte {
	nalloc := int32(t.nalloc.Load())
	root := int32(-1)
	if t.Root != nil {
		// The root is allocated first during the build, but derive the index
		// rather than assuming slot 0.
		for i := int32(0); i < nalloc; i++ {
			if &t.nodes[i] == t.Root {
				root = i
				break
			}
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.LeafSize))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(nalloc))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(root))
	for _, o := range t.Orig {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(o))
	}
	for i := int32(0); i < nalloc; i++ {
		nd := &t.nodes[i]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(nd.Lo))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(nd.Hi))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(nd.Left))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(nd.Right))
		buf = appendFloat(buf, nd.Radius)
		buf = appendFloat(buf, nd.MDiam)
	}
	geomLen := int(nalloc) * 3 * t.Pts.Dim
	for _, v := range t.geom[:geomLen] {
		buf = appendFloat(buf, v)
	}
	return buf
}

func appendFloat(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// DecodeSnapshot reconstructs a tree from an AppendSnapshot encoding. pts
// must be the same prepared point set (in original id order) the encoded
// tree was built over, and m the same metric; the kd-order rows are rebuilt
// by permuting a private copy of pts through the decoded permutation. The
// input is fully validated: a malformed encoding yields an error, never a
// panic or a tree that can crash a query.
func DecodeSnapshot(data []byte, pts geometry.Points, m metric.Metric) (*Tree, error) {
	n, dim := pts.N, pts.Dim
	rd := snapReader{data: data}
	leafSize, ok1 := rd.u32()
	nallocU, ok2 := rd.u32()
	rootU, ok3 := rd.u32()
	if !ok1 || !ok2 || !ok3 {
		return nil, fmt.Errorf("kdtree: snapshot truncated in header")
	}
	nalloc := int32(nallocU)
	root := int32(rootU)
	if leafSize < 1 || leafSize > 1<<30 {
		return nil, fmt.Errorf("kdtree: snapshot leaf size %d out of range", leafSize)
	}
	maxNodes := int32(0)
	if n > 0 {
		maxNodes = int32(2*n - 1)
	}
	if nalloc < 0 || nalloc > maxNodes {
		return nil, fmt.Errorf("kdtree: snapshot node count %d out of range [0, %d]", nalloc, maxNodes)
	}
	if n == 0 {
		if nalloc != 0 || root != -1 {
			return nil, fmt.Errorf("kdtree: snapshot of empty tree has nodes")
		}
	} else if root < 0 || root >= nalloc {
		return nil, fmt.Errorf("kdtree: snapshot root %d out of range [0, %d)", root, nalloc)
	}
	want := 4*n + int(nalloc)*snapNodeBytes + 8*int(nalloc)*3*dim
	if rd.remaining() != want {
		return nil, fmt.Errorf("kdtree: snapshot body is %d bytes, want %d", rd.remaining(), want)
	}

	t := &Tree{
		Pts:      geometry.Points{Data: make([]float64, n*dim), N: n, Dim: dim},
		Orig:     make([]int32, n),
		Inv:      make([]int32, n),
		LeafSize: int(leafSize),
		M:        m,
		l2:       metric.IsL2(m),
	}
	t.dist64 = kernel64(t.Pts, m)
	seen := make([]bool, n)
	for i := range t.Orig {
		o, _ := rd.u32()
		oi := int32(o)
		if oi < 0 || int(oi) >= n || seen[oi] {
			return nil, fmt.Errorf("kdtree: snapshot permutation is not a bijection at position %d", i)
		}
		seen[oi] = true
		t.Orig[i] = oi
		t.Inv[oi] = int32(i)
	}
	// Rebuild the kd-order rows from the original-order points: position p
	// holds the row of original id Orig[p], an exact float copy.
	for p := 0; p < n; p++ {
		copy(t.Pts.Data[p*dim:(p+1)*dim], pts.Data[int(t.Orig[p])*dim:(int(t.Orig[p])+1)*dim])
	}

	if nalloc == 0 {
		return t, nil
	}
	t.nodes = make([]Node, nalloc)
	t.geom = make([]float64, int(nalloc)*3*dim)
	for i := int32(0); i < nalloc; i++ {
		nd := &t.nodes[i]
		lo, _ := rd.u32()
		hi, _ := rd.u32()
		left, _ := rd.u32()
		right, _ := rd.u32()
		nd.Lo, nd.Hi = int32(lo), int32(hi)
		nd.Left, nd.Right = int32(left), int32(right)
		nd.Radius, _ = rd.f64()
		nd.MDiam, _ = rd.f64()
		nd.Comp = -1
		off := int(i) * 3 * dim
		nd.Box = geometry.Box{
			Lo: t.geom[off : off+dim : off+dim],
			Hi: t.geom[off+dim : off+2*dim : off+2*dim],
		}
		nd.Ctr = t.geom[off+2*dim : off+3*dim : off+3*dim]
	}
	for i := 0; i < int(nalloc)*3*dim; i++ {
		t.geom[i], _ = rd.f64()
	}
	if err := validateNodes(t.nodes, int32(n), nalloc, root); err != nil {
		return nil, err
	}
	t.Root = &t.nodes[root]
	t.nalloc.Store(nalloc)
	return t, nil
}

// validateNodes checks the structural invariants every traversal relies on:
// point ranges inside [0, n), children allocated after their parent (which
// rules out cycles without a reachability walk), leaves marked by both
// child indices being negative, and each internal node's children forming a
// contiguous partition of its range. The root must cover all points.
func validateNodes(nodes []Node, n, nalloc, root int32) error {
	if nodes[root].Lo != 0 || nodes[root].Hi != n {
		return fmt.Errorf("kdtree: snapshot root covers [%d, %d), want [0, %d)", nodes[root].Lo, nodes[root].Hi, n)
	}
	for i := int32(0); i < nalloc; i++ {
		nd := &nodes[i]
		if nd.Lo < 0 || nd.Hi > n || nd.Lo >= nd.Hi {
			return fmt.Errorf("kdtree: snapshot node %d has range [%d, %d)", i, nd.Lo, nd.Hi)
		}
		if (nd.Left < 0) != (nd.Right < 0) {
			return fmt.Errorf("kdtree: snapshot node %d has exactly one child", i)
		}
		if nd.Left < 0 {
			continue
		}
		if nd.Left <= i || nd.Left >= nalloc || nd.Right <= i || nd.Right >= nalloc || nd.Left == nd.Right {
			return fmt.Errorf("kdtree: snapshot node %d has child indices %d, %d", i, nd.Left, nd.Right)
		}
		l, r := &nodes[nd.Left], &nodes[nd.Right]
		if l.Lo != nd.Lo || l.Hi != r.Lo || r.Hi != nd.Hi {
			return fmt.Errorf("kdtree: snapshot node %d children do not partition [%d, %d)", i, nd.Lo, nd.Hi)
		}
	}
	return nil
}

// snapReader is a bounds-checked little-endian cursor.
type snapReader struct {
	data []byte
	off  int
}

func (r *snapReader) remaining() int { return len(r.data) - r.off }

func (r *snapReader) u32() (uint32, bool) {
	if r.remaining() < 4 {
		return 0, false
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, true
}

func (r *snapReader) f64() (float64, bool) {
	if r.remaining() < 8 {
		return 0, false
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return v, true
}
