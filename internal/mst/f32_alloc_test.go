package mst

import (
	"testing"

	"parclust/internal/kdtree"
	"parclust/internal/metric"
)

// TestF32BoruvkaRoundAllocs pins the float32 Borůvka round at zero
// steady-state heap allocations: Tree.NearestOutside lane-scans the SoA panels
// into a stack buffer and everything else lives in the Workspace, matching
// the float64 pin in TestBoruvkaRoundAllocs.
func TestF32BoruvkaRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	pts := randPoints(512, 16, 44)
	tr := kdtree.BuildMetric(pts, 1, metric.L2{})
	if err := tr.EnableFloat32(); err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	r := newBoruvkaRun(Config{Tree: tr}, ws)
	if !r.round() { // warm up: first round sizes nothing (grow already did)
		t.Fatal("float32 Borůvka finished in zero rounds")
	}
	allocs := testing.AllocsPerRun(10, func() { r.round() })
	if allocs != 0 {
		t.Fatalf("steady-state float32 Borůvka round allocated %v times, want 0", allocs)
	}
}
