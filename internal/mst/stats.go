package mst

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Phase names one timed phase of a build: the stages of the pipeline and
// the per-round steps of the MST algorithms (the paper's Figure 8).
type Phase uint8

const (
	PhaseBuildTree Phase = iota
	PhaseCoreDist
	PhaseWSPD
	PhaseBCCP
	PhaseKruskal
	PhaseRefresh
	PhaseQuery
	PhaseMerge
	PhaseDelaunay
	PhaseGenEdges
	PhaseDendrogram
	NumPhases
)

var phaseNames = [NumPhases]string{
	"build-tree", "core-dist", "wspd", "bccp", "kruskal", "refresh",
	"query", "merge", "delaunay", "gen-edges", "dendrogram",
}

func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("Phase(%d)", uint8(p))
}

// Stats collects the instrumentation the paper's experiments report:
// per-phase wall-clock times (Figure 8) and work/memory counters for the
// MemoGFK memory study. Counter fields are updated atomically; phase times
// are only touched from the coordinating goroutine. Stats holds no
// pointers, so a copy taken while no run is recording into it is an
// independent snapshot, and two reports compare with ==.
type Stats struct {
	// PairsMaterialized and PeakPairsResident count what each algorithm
	// holds in memory, which is not the same unit everywhere:
	//   - EMST-Naive, GFK and WSPD-Borůvka store WSPD pairs: the sum is
	//     every pair of the decomposition, the peak the most alive at once.
	//   - MemoGFK stores no pairs. It counts the candidate edges each round
	//     retrieves into its Kruskal batch (the sum over rounds, and the
	//     largest batch): one edge per in-window BCCP on a float64 tree,
	//     but on a float32 tree also the forest edges of each small node
	//     pair it brute-force scans (the minimum spanning forest of the
	//     pair's in-window edges over the round's components, all a block
	//     keeps), so there the counts can run above BCCPComputed.
	//   - ApproxOPTICS counts its WSPD pairs in PairsMaterialized and its
	//     candidate edges in PeakPairsResident.
	//   - Borůvka and the Delaunay EMST record neither.
	PairsMaterialized int64
	PeakPairsResident int64
	// BCCPComputed counts bichromatic-closest-pair invocations; MemoGFK's
	// brute-force scans of small node pairs count none.
	BCCPComputed int64
	// Rounds counts filter-Kruskal rounds (GFK, MemoGFK) or Borůvka
	// rounds (Borůvka, WSPD-Borůvka).
	Rounds int64

	// Phases holds the accumulated wall-clock time of each Phase; phases
	// that did not run read zero.
	Phases [NumPhases]time.Duration
}

// NewStats returns an empty Stats.
func NewStats() *Stats { return &Stats{} }

// AddPhase accumulates wall-clock time for a phase.
func (s *Stats) AddPhase(p Phase, d time.Duration) {
	if s == nil {
		return
	}
	s.Phases[p] += d
}

// Time runs f and accounts its duration under the phase.
func (s *Stats) Time(p Phase, f func()) {
	if s == nil {
		f()
		return
	}
	start := time.Now()
	f()
	s.AddPhase(p, time.Since(start))
}

func (s *Stats) AddPairs(n int64) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.PairsMaterialized, n)
}

// NotePeak records the current number of resident pairs, keeping the max.
func (s *Stats) NotePeak(resident int64) {
	if s == nil {
		return
	}
	for {
		peak := atomic.LoadInt64(&s.PeakPairsResident)
		if resident <= peak || atomic.CompareAndSwapInt64(&s.PeakPairsResident, peak, resident) {
			return
		}
	}
}

// AddBCCP adds n bichromatic-closest-pair calls. Parallel drivers count
// per task and add once per task, not once per call.
func (s *Stats) AddBCCP(n int64) {
	if s == nil || n == 0 {
		return
	}
	atomic.AddInt64(&s.BCCPComputed, n)
}

func (s *Stats) AddRound() {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.Rounds, 1)
}
