//go:build race

package dendrogram

// raceEnabled reports that the race detector is active; the allocation
// regression tests skip under it because instrumentation itself allocates.
const raceEnabled = true
