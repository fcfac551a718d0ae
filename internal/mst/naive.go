package mst

import (
	"parclust/internal/abort"
	"parclust/internal/kdtree"
	"parclust/internal/parallel"
	"parclust/internal/wspd"
)

// Config carries the inputs shared by the MST drivers. Metric must be
// built over the tree's kd-ordered points (see the
// kdtree.NewEuclidean/NewPointDist/NewMutualReachability constructors);
// the algorithms translate their results back to original ids. Boruvka
// reads only Tree, Stats, WS and Abort: it runs under the tree's metric.
type Config struct {
	Tree   *kdtree.Tree
	Metric kdtree.Metric
	Sep    wspd.Separation
	Stats  *Stats // optional

	// WS supplies the reusable round buffers; nil means a private
	// workspace per run. Sharing one Workspace across runs amortizes the
	// union-find and reduction arrays (a Workspace serves one run at a
	// time, and a returned edge slice never aliases it).
	WS *Workspace

	// LinearBeta switches the GFK/MemoGFK round schedule from doubling the
	// cardinality bound (the paper's choice, crucial for the O(log n)
	// round bound of Theorem 3.1) to the linear growth of the sequential
	// algorithm of Chatterjee et al. Used by the ablation benchmarks.
	LinearBeta bool

	// Abort is an optional cooperative cancellation flag, polled once per
	// filter round and once per parallel work chunk/traversal spawn. On
	// abort the run unwinds with abort.Signal{} (recovered at the
	// stage-build boundary in internal/engine). nil means uncancellable.
	Abort *abort.Flag
}

// nextBeta advances the round cardinality bound.
func nextBeta(cfg Config, beta int) int {
	if cfg.LinearBeta {
		return beta + 2
	}
	return beta * 2
}

// roundCap bounds the number of filter rounds: logarithmic for the
// doubling schedule, linear for the ablation schedule.
func roundCap(cfg Config, n int) int {
	if cfg.LinearBeta {
		return n + maxRounds
	}
	return maxRounds
}

// Naive is EMST-Naive from Section 5: materialize the full WSPD, compute the
// BCCP of every pair in parallel, and run one Kruskal pass over all edges.
func Naive(cfg Config) []Edge {
	t := cfg.Tree
	n := t.Pts.N
	if n <= 1 {
		return nil
	}
	var pairs []wspd.Pair
	cfg.Stats.Time(PhaseWSPD, func() {
		pairs = wspd.Decompose(t, cfg.Sep, cfg.Abort)
	})
	cfg.Stats.AddPairs(int64(len(pairs)))
	cfg.Stats.NotePeak(int64(len(pairs)))
	edges := make([]Edge, len(pairs))
	cfg.Stats.Time(PhaseBCCP, func() {
		parallel.For(len(pairs), 8, func(i int) {
			if i%512 == 0 {
				cfg.Abort.Check()
			}
			r := kdtree.BCCP(t, cfg.Metric, pairs[i].A, pairs[i].B)
			edges[i] = MakeEdge(r.U, r.V, r.W)
		})
	})
	cfg.Stats.AddBCCP(int64(len(pairs)))
	var out []Edge
	cfg.Stats.Time(PhaseKruskal, func() {
		out = Kruskal(n, edges)
	})
	for i, e := range out {
		out[i] = MakeEdge(t.Orig[e.U], t.Orig[e.V], e.W)
	}
	return out
}
