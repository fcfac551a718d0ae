// Package unionfind provides the disjoint-set structure shared across
// rounds of the filter-Kruskal algorithms (Section 3.1.2).
package unionfind

// UF is a union-find structure over n elements with union by rank and path
// halving. Find mutates (compresses) and must not be called concurrently.
type UF struct {
	parent []int32
	rank   []int8
	count  int // number of components
}

// New returns a union-find over n singleton elements.
func New(n int) *UF {
	u := &UF{parent: make([]int32, n), rank: make([]int8, n), count: n}
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	return u
}

// Len returns the number of elements.
func (u *UF) Len() int { return len(u.parent) }

// Components returns the current number of components.
func (u *UF) Components() int { return u.count }

// Find returns the representative of x, compressing the path.
func (u *UF) Find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// Connected reports whether x and y are in the same component.
func (u *UF) Connected(x, y int32) bool { return u.Find(x) == u.Find(y) }

// Union merges the components of x and y and reports whether a merge
// happened (false if they were already connected).
func (u *UF) Union(x, y int32) bool {
	rx, ry := u.Find(x), u.Find(y)
	if rx == ry {
		return false
	}
	if u.rank[rx] < u.rank[ry] {
		rx, ry = ry, rx
	}
	u.parent[ry] = rx
	if u.rank[rx] == u.rank[ry] {
		u.rank[rx]++
	}
	u.count--
	return true
}

// Reset returns the structure to all-singletons without reallocating.
func (u *UF) Reset() { u.ResetN(len(u.parent)) }

// ResetN returns the first n elements (n <= Len) to singletons and sets the
// component count to n, so a recycled structure serves a smaller universe
// correctly: Components counts only the active elements, and termination
// checks like Components() <= 1 behave as on a fresh UF of size n. Elements
// at index n and above must not be touched until the next full Reset.
func (u *UF) ResetN(n int) {
	for i := 0; i < n; i++ {
		u.parent[i] = int32(i)
		u.rank[i] = 0
	}
	u.count = n
}
