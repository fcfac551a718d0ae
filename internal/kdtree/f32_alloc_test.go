package kdtree

import (
	"testing"

	"parclust/internal/geometry"
	"parclust/internal/metric"
)

// Allocation pins for the float32 fast paths: the SoA panel scans
// accumulate into fixed-size stack buffers and the comparison-space heap
// keys are plain float64s, so steady-state queries must stay off the heap
// exactly like their float64 counterparts.

func TestF32KNNIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	pts := randPoints(2000, 16, 31)
	tr := BuildMetric(pts, 1, metric.L2{})
	if err := tr.EnableFloat32(); err != nil {
		t.Fatal(err)
	}
	var ws KNNWorkspace
	tr.KNNInto(0, 10, &ws) // warm up: grows the heap and result buffers
	q := int32(0)
	allocs := testing.AllocsPerRun(100, func() {
		q = (q + 17) % int32(pts.N)
		tr.KNNInto(q, 10, &ws)
	})
	if allocs != 0 {
		t.Fatalf("steady-state float32 KNNInto allocated %v times, want 0", allocs)
	}
}

func TestF32RangeQueryAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	pts := randPoints(2000, 16, 32)
	tr := BuildMetric(pts, 1, metric.L2{})
	if err := tr.EnableFloat32(); err != nil {
		t.Fatal(err)
	}
	buf := tr.RangeQueryAppend(0, 150, nil)
	q := int32(0)
	allocs := testing.AllocsPerRun(100, func() {
		q = (q + 13) % int32(pts.N)
		buf = tr.RangeQueryAppend(q, 120, buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("steady-state float32 RangeQueryAppend allocated %v times, want 0", allocs)
	}
}

// TestF32BCCPSqAllocs pins the lane-scanned BCCP traversal: pruning bounds
// are exact float64 box distances and the all-pairs scan runs over stack
// buffers, so a node-pair query performs no heap allocation at all.
func TestF32BCCPSqAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	pts := randPoints(1024, 16, 33)
	tr := BuildMetric(pts, 1, metric.L2{})
	if err := tr.EnableFloat32(); err != nil {
		t.Fatal(err)
	}
	a, b := tr.LeftOf(tr.Root), tr.RightOf(tr.Root)
	if res := BCCPSq(tr, nil, a, b); res.U < 0 { // warm up and sanity check
		t.Fatal("BCCPSq found no pair")
	}
	allocs := testing.AllocsPerRun(20, func() { BCCPSq(tr, nil, a, b) })
	if allocs != 0 {
		t.Fatalf("float32 BCCPSq allocated %v times, want 0", allocs)
	}
}

// TestQueryAllocs pins the point-query paths the pins above leave open at
// zero steady-state allocations, on both dtypes: RangeCount, trees under
// the L1 and angular kernels, and the tombstoned coordinate queries of the
// engine's dynamic layer (which run on float64 on every tree).
func TestQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	base := randPoints(2000, 8, 34)
	unit, err := metric.NormalizeRows(base)
	if err != nil {
		t.Fatal(err)
	}
	tomb := make([]bool, base.N)
	for i := range tomb {
		tomb[i] = i%3 == 1
	}
	for _, c := range []struct {
		m   metric.Metric
		pts geometry.Points
	}{{metric.L2{}, base}, {metric.L1{}, base}, {metric.Angular{}, unit}} {
		for _, f32 := range []bool{false, true} {
			tr := BuildMetric(c.pts, 1, c.m)
			if f32 {
				if err := tr.EnableFloat32(); err != nil {
					t.Fatal(err)
				}
			}
			r := tr.KNN(0, 20)[19].Dist // a radius holding about 20 points
			var ws KNNWorkspace
			buf := tr.RangeQueryAppend(0, 4*r, nil)
			tr.KNNLiveInto(c.pts.At(0), 10, tomb, &ws) // warm up the buffers
			q := int32(0)
			for name, query := range map[string]func(){
				"KNNInto":              func() { tr.KNNInto(q, 10, &ws) },
				"RangeQueryAppend":     func() { buf = tr.RangeQueryAppend(q, r, buf[:0]) },
				"RangeCount":           func() { tr.RangeCount(q, r) },
				"KNNLiveInto":          func() { tr.KNNLiveInto(c.pts.At(int(q)), 10, tomb, &ws) },
				"RangeQueryLiveAppend": func() { buf = tr.RangeQueryLiveAppend(c.pts.At(int(q)), r, tomb, buf[:0]) },
				"RangeCountLive":       func() { tr.RangeCountLive(c.pts.At(int(q)), r, tomb) },
			} {
				allocs := testing.AllocsPerRun(50, func() {
					q = (q + 17) % int32(c.pts.N)
					query()
				})
				if allocs != 0 {
					t.Errorf("%s/%s/f32=%v: %v allocations per query, want 0", c.m.Name(), name, f32, allocs)
				}
			}
		}
	}
}
