package kdtree

import (
	"testing"
	"testing/quick"

	"parclust/internal/metric"
)

// TestKNNIntoAllocs pins the workspace k-NN query path at zero steady-state
// heap allocations: the bounded heap and result buffer live in the
// workspace, leaf scans run over the tree's contiguous kd-ordered rows, and
// the original-id mapping is a flat array lookup.
func TestKNNIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	pts := randPoints(2000, 3, 21)
	tr := BuildMetric(pts, 8, metric.L2{})
	var ws KNNWorkspace
	tr.KNNInto(0, 10, &ws) // warm up: grows the heap and result buffers
	q := int32(0)
	allocs := testing.AllocsPerRun(100, func() {
		q = (q + 17) % int32(pts.N)
		tr.KNNInto(q, 10, &ws)
	})
	if allocs != 0 {
		t.Fatalf("steady-state KNNInto allocated %v times, want 0", allocs)
	}
}

// TestRangeQueryAppendAllocs pins the buffer-reusing range query at zero
// steady-state allocations once the buffer has grown.
func TestRangeQueryAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	pts := randPoints(2000, 3, 22)
	tr := BuildMetric(pts, 8, metric.L2{})
	buf := tr.RangeQueryAppend(0, 30, nil)
	q := int32(0)
	allocs := testing.AllocsPerRun(100, func() {
		q = (q + 13) % int32(pts.N)
		buf = tr.RangeQueryAppend(q, 20, buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("steady-state RangeQueryAppend allocated %v times, want 0", allocs)
	}
}

// TestPermutationRoundTrip is the property test for the kd-order
// reordering: Orig and Inv are mutually inverse permutations, and the
// tree's reordered rows are exactly the original rows under Orig — so
// every id a query reports refers to the point the caller passed in.
func TestPermutationRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint16, dimRaw, leafRaw uint8) bool {
		n := 1 + int(nRaw)%3000
		dim := 1 + int(dimRaw)%5
		leaf := 1 + int(leafRaw)%16
		pts := randPoints(n, dim, seed)
		tr := BuildMetric(pts, leaf, metric.L2{})
		if len(tr.Orig) != n || len(tr.Inv) != n {
			return false
		}
		seen := make([]bool, n)
		for p := 0; p < n; p++ {
			o := tr.Orig[p]
			if o < 0 || int(o) >= n || seen[o] {
				return false // not a permutation
			}
			seen[o] = true
			if tr.Inv[o] != int32(p) {
				return false // Inv is not the inverse of Orig
			}
			// Row round-trip: the reordered row is the original row.
			a, b := tr.Pts.At(p), pts.At(int(o))
			for k := range a {
				if a[k] != b[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBuildDoesNotMutateInput pins the reordering contract: the tree
// permutes its own copy, never the caller's buffer.
func TestBuildDoesNotMutateInput(t *testing.T) {
	pts := randPoints(500, 3, 23)
	before := append([]float64(nil), pts.Data...)
	BuildMetric(pts, 1, metric.L2{})
	for i := range before {
		if pts.Data[i] != before[i] {
			t.Fatal("BuildMetric mutated the caller's point buffer")
		}
	}
}
