package main

// Correctness checks. They run untimed — per repetition only as cheap
// fingerprints, everything else after the measured window or, on the serve
// workloads, after each segment of it — and any failure makes the run
// report correct=false and exit non-zero.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"

	"parclust"
)

// checker collects failed checks.
type checker struct{ failures []string }

func (c *checker) failf(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

func (c *checker) ok() bool { return len(c.failures) == 0 }

// spanningTree checks that edges form one spanning tree over n points.
func (c *checker) spanningTree(what string, n int, edges []parclust.Edge) {
	if !isSpanningTree(n, edges) {
		c.failf("%s: %d edges do not form a spanning tree over %d points", what, len(edges), n)
	}
}

// sameBits checks two floats for bit-identity.
func (c *checker) sameBits(what string, want, got float64) {
	if math.Float64bits(want) != math.Float64bits(got) {
		c.failf("%s: got %v, want bit-identical %v", what, got, want)
	}
}

// sameHeights checks that two spanning trees induce identical sorted merge
// heights, bit for bit.
func (c *checker) sameHeights(what string, want, got []parclust.Edge) {
	hw, hg := mergeHeights(want), mergeHeights(got)
	if len(hw) != len(hg) {
		c.failf("%s: %d merge heights, want %d", what, len(hg), len(hw))
		return
	}
	for i := range hw {
		if math.Float64bits(hw[i]) != math.Float64bits(hg[i]) {
			c.failf("%s: merge height %d is %v, want %v", what, i, hg[i], hw[i])
			return
		}
	}
}

// relErr checks |got-want| <= tol*|want|.
func (c *checker) relErr(what string, want, got, tol float64) {
	if math.Abs(got-want) > tol*math.Abs(want) {
		c.failf("%s: got %v, want %v within relative %g", what, got, want, tol)
	}
}

// sameLabels checks two label vectors for equality.
func (c *checker) sameLabels(what string, want, got []int32) {
	if len(want) != len(got) {
		c.failf("%s: %d labels, want %d", what, len(got), len(want))
		return
	}
	if i := firstDiff(want, got); i >= 0 {
		c.failf("%s: label of point %d is %d, want %d", what, i, got[i], want[i])
	}
}

// sameNeighbors checks that a k-NN answer lists the wanted ids in order.
func (c *checker) sameNeighbors(what string, want []parclust.Neighbor, got []int32) {
	ids := make([]int32, len(want))
	for i, nb := range want {
		ids[i] = nb.Idx
	}
	if !slices.Equal(ids, got) {
		c.failf("%s: neighbours %v, want %v", what, got, ids)
	}
}

func firstDiff(a, b []int32) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// fingerprint hashes an edge list (order, endpoints and weight bits), so
// repetitions can be compared for bit-identity without keeping their edges.
func fingerprint(edges []parclust.Edge) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for _, e := range edges {
		binary.LittleEndian.PutUint32(buf[0:], uint32(e.U))
		binary.LittleEndian.PutUint32(buf[4:], uint32(e.V))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(e.W))
		h.Write(buf[:])
	}
	return h.Sum64()
}
