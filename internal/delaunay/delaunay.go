// Package delaunay implements 2D Delaunay triangulation via incremental
// Bowyer-Watson insertion with walking point location over a Morton-sorted
// insertion order, and the EMST-Delaunay baseline of Appendix A.1: in two
// dimensions the EMST is a subgraph of the Delaunay triangulation, so an
// MST over its O(n) edges is the EMST.
package delaunay

import (
	"math"
	"sort"

	"parclust/internal/geometry"
	"parclust/internal/mst"
)

type tri struct {
	v     [3]int32 // vertices, counter-clockwise
	adj   [3]int32 // adj[i] is the neighbor across the edge opposite v[i]
	alive bool
}

// Triangulation is a Delaunay triangulation of a 2D point set. Vertex ids
// n, n+1, n+2 are the synthetic super-triangle vertices.
type Triangulation struct {
	n      int
	xs, ys []float64 // n+3 coordinates
	tris   []tri
	last   int32 // walk start hint
}

// Triangulate computes the Delaunay triangulation of pts (which must be
// 2-dimensional).
func Triangulate(pts geometry.Points) *Triangulation {
	if pts.Dim != 2 {
		panic("delaunay: triangulation requires 2D points")
	}
	n := pts.N
	t := &Triangulation{n: n, xs: make([]float64, n+3), ys: make([]float64, n+3)}
	loX, hiX := math.Inf(1), math.Inf(-1)
	loY, hiY := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		x, y := pts.Data[2*i], pts.Data[2*i+1]
		t.xs[i], t.ys[i] = x, y
		loX, hiX = math.Min(loX, x), math.Max(hiX, x)
		loY, hiY = math.Min(loY, y), math.Max(hiY, y)
	}
	if n == 0 {
		return t
	}
	cx, cy := (loX+hiX)/2, (loY+hiY)/2
	m := math.Max(hiX-loX, hiY-loY)
	if m == 0 {
		m = 1
	}
	big := 1e4 * m
	sv := int32(n)
	t.xs[sv], t.ys[sv] = cx-2*big, cy-big
	t.xs[sv+1], t.ys[sv+1] = cx+2*big, cy-big
	t.xs[sv+2], t.ys[sv+2] = cx, cy+2*big
	t.tris = append(t.tris, tri{v: [3]int32{sv, sv + 1, sv + 2}, adj: [3]int32{-1, -1, -1}, alive: true})

	// Morton-sorted insertion order for walk locality.
	order := mortonOrder(t.xs[:n], t.ys[:n], loX, loY, m)
	for _, p := range order {
		t.insert(p)
	}
	return t
}

func mortonOrder(xs, ys []float64, loX, loY, extent float64) []int32 {
	n := len(xs)
	keys := make([]uint64, n)
	order := make([]int32, n)
	for i := 0; i < n; i++ {
		qx := uint32((xs[i] - loX) / extent * 65535)
		qy := uint32((ys[i] - loY) / extent * 65535)
		keys[i] = interleave(qx) | interleave(qy)<<1
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	return order
}

func interleave(v uint32) uint64 {
	x := uint64(v) & 0xffff
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

func (t *Triangulation) orient(a, b, c int32) float64 {
	return (t.xs[b]-t.xs[a])*(t.ys[c]-t.ys[a]) - (t.ys[b]-t.ys[a])*(t.xs[c]-t.xs[a])
}

// inCircumcircle reports whether point d lies strictly inside the
// circumcircle of CCW triangle (a, b, c).
func (t *Triangulation) inCircumcircle(a, b, c, d int32) bool {
	ax, ay := t.xs[a]-t.xs[d], t.ys[a]-t.ys[d]
	bx, by := t.xs[b]-t.xs[d], t.ys[b]-t.ys[d]
	cx, cy := t.xs[c]-t.xs[d], t.ys[c]-t.ys[d]
	det := (ax*ax+ay*ay)*(bx*cy-by*cx) -
		(bx*bx+by*by)*(ax*cy-ay*cx) +
		(cx*cx+cy*cy)*(ax*by-ay*bx)
	return det > 0
}

// locate walks from the hint triangle toward p and returns a live triangle
// containing p.
func (t *Triangulation) locate(p int32) int32 {
	cur := t.last
	if !t.tris[cur].alive {
		for i := len(t.tris) - 1; i >= 0; i-- {
			if t.tris[i].alive {
				cur = int32(i)
				break
			}
		}
	}
	for steps := 0; steps < 4*len(t.tris)+16; steps++ {
		tr := &t.tris[cur]
		moved := false
		for e := 0; e < 3; e++ {
			a := tr.v[(e+1)%3]
			b := tr.v[(e+2)%3]
			if t.orient(a, b, p) < 0 { // p beyond edge (a,b)
				nb := tr.adj[e]
				if nb >= 0 {
					cur = nb
					moved = true
					break
				}
			}
		}
		if !moved {
			return cur
		}
	}
	// Degenerate walk (should not happen with a super-triangle); fall back
	// to a linear scan.
	for i, tr := range t.tris {
		if !tr.alive {
			continue
		}
		if t.orient(tr.v[0], tr.v[1], p) >= 0 &&
			t.orient(tr.v[1], tr.v[2], p) >= 0 &&
			t.orient(tr.v[2], tr.v[0], p) >= 0 {
			return int32(i)
		}
	}
	panic("delaunay: point location failed")
}

// insert adds point p with the Bowyer-Watson cavity algorithm.
func (t *Triangulation) insert(p int32) {
	seed := t.locate(p)
	// BFS for the cavity: all live triangles whose circumcircle contains p.
	bad := map[int32]bool{seed: true}
	queue := []int32{seed}
	type bedge struct {
		a, b    int32 // directed boundary edge (cavity on the left)
		outside int32 // triangle beyond the edge (-1 at the hull)
	}
	var boundary []bedge
	for len(queue) > 0 {
		ti := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		tr := t.tris[ti]
		for e := 0; e < 3; e++ {
			nb := tr.adj[e]
			a := tr.v[(e+1)%3]
			b := tr.v[(e+2)%3]
			if nb >= 0 && !bad[nb] {
				nbt := t.tris[nb]
				if t.inCircumcircle(nbt.v[0], nbt.v[1], nbt.v[2], p) {
					bad[nb] = true
					queue = append(queue, nb)
					continue
				}
			}
			if nb < 0 || !bad[nb] {
				boundary = append(boundary, bedge{a: a, b: b, outside: nb})
			}
		}
	}
	// A later neighbor may have been marked bad after its boundary edge was
	// recorded; drop stale entries.
	clean := boundary[:0]
	for _, be := range boundary {
		if be.outside < 0 || !bad[be.outside] {
			clean = append(clean, be)
		}
	}
	boundary = clean
	for ti := range bad {
		t.tris[ti].alive = false
	}
	// Re-triangulate the star of p.
	newByEdge := make(map[int64]int32, len(boundary))
	key := func(a, b int32) int64 { return int64(a)<<32 | int64(uint32(b)) }
	for _, be := range boundary {
		ni := int32(len(t.tris))
		nt := tri{v: [3]int32{p, be.a, be.b}, adj: [3]int32{be.outside, -1, -1}, alive: true}
		t.tris = append(t.tris, nt)
		if be.outside >= 0 {
			out := &t.tris[be.outside]
			for e := 0; e < 3; e++ {
				oa := out.v[(e+1)%3]
				ob := out.v[(e+2)%3]
				if oa == be.b && ob == be.a {
					out.adj[e] = ni
				}
			}
		}
		newByEdge[key(be.a, be.b)] = ni
	}
	// Stitch fan neighbors. The cavity boundary is a closed polygon, so each
	// vertex appears exactly once as an edge start and once as an edge end.
	startAt := make(map[int32]int32, len(boundary))
	endAt := make(map[int32]int32, len(boundary))
	for _, be := range boundary {
		ni := newByEdge[key(be.a, be.b)]
		startAt[be.a] = ni
		endAt[be.b] = ni
	}
	for _, be := range boundary {
		ni := newByEdge[key(be.a, be.b)]
		t.tris[ni].adj[1] = startAt[be.b] // across edge (p, b): tri (p, b, *)
		t.tris[ni].adj[2] = endAt[be.a]   // across edge (p, a): tri (p, *, a)
	}
	t.last = int32(len(t.tris) - 1)
}

// Edges returns the undirected Delaunay edges between input points (edges
// to super-triangle vertices excluded), weighted by Euclidean distance.
func (t *Triangulation) Edges() []mst.Edge {
	seen := make(map[int64]bool)
	var out []mst.Edge
	for _, tr := range t.tris {
		if !tr.alive {
			continue
		}
		for e := 0; e < 3; e++ {
			a, b := tr.v[e], tr.v[(e+1)%3]
			if int(a) >= t.n || int(b) >= t.n {
				continue
			}
			if a > b {
				a, b = b, a
			}
			k := int64(a)<<32 | int64(b)
			if seen[k] {
				continue
			}
			seen[k] = true
			dx, dy := t.xs[a]-t.xs[b], t.ys[a]-t.ys[b]
			out = append(out, mst.Edge{U: a, V: b, W: math.Hypot(dx, dy)})
		}
	}
	return out
}

// Triangles returns the alive triangles among input points only.
func (t *Triangulation) Triangles() [][3]int32 {
	var out [][3]int32
	for _, tr := range t.tris {
		if !tr.alive {
			continue
		}
		if int(tr.v[0]) >= t.n || int(tr.v[1]) >= t.n || int(tr.v[2]) >= t.n {
			continue
		}
		out = append(out, tr.v)
	}
	return out
}

// EMST computes the 2D EMST via Delaunay triangulation + Kruskal
// (Appendix A.1). Both steps are sequential: the triangulation and
// mst.Kruskal, a Filter-Kruskal. Each distinct site is triangulated once,
// and every repeat of a site joins it by a zero-weight edge: inserting a
// point twice creates zero-area triangles, after which later insertions can
// drop Delaunay edges.
func EMST(pts geometry.Points, stats *mst.Stats) []mst.Edge {
	if pts.N <= 1 {
		return nil
	}
	var edges, out []mst.Edge
	stats.Time(mst.PhaseDelaunay, func() {
		first := make(map[[2]float64]int32, pts.N)
		var ids []int32 // input id of each distinct site, increasing
		sites := geometry.Points{Dim: 2}
		for i := range int32(pts.N) {
			xy := [2]float64(pts.At(int(i)))
			if j, ok := first[xy]; ok {
				edges = append(edges, mst.Edge{U: j, V: i})
				continue
			}
			first[xy] = i
			ids = append(ids, i)
			sites.Data = append(sites.Data, xy[0], xy[1])
		}
		sites.N = len(ids)
		// Edges weighs each edge from the sites, exact copies of the
		// caller's coordinates.
		for _, e := range Triangulate(sites).Edges() {
			edges = append(edges, mst.Edge{U: ids[e.U], V: ids[e.V], W: e.W})
		}
	})
	stats.Time(mst.PhaseKruskal, func() { out = mst.Kruskal(pts.N, edges) })
	return out
}
