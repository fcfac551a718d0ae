package wspd

import (
	"testing"

	"parclust/internal/kdtree"
	"parclust/internal/metric"
)

// TestDecomposeAllocs pins Decompose below spawnSize (no forks) to the
// growth steps of its one result buffer — about 20 for the ~9.5k pairs
// here — rather than allocations per pair.
func TestDecomposeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	tr := kdtree.BuildMetric(randPoints(512, 3, 42), 1, metric.L2{})
	tr.AnnotateCoreDists(tr.CoreDistances(10))
	for _, sep := range []Separation{Geometric{S: 2}, MutualUnreachable{}} {
		const maxAllocs = 32
		allocs := testing.AllocsPerRun(5, func() { Decompose(tr, sep, nil) })
		if allocs > maxAllocs {
			t.Errorf("%T: Decompose allocated %v times, want <= %d", sep, allocs, maxAllocs)
		}
	}
}
