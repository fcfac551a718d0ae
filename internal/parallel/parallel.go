// Package parallel implements the shared-memory parallel primitives from
// Section 2.2 of the paper that the pipeline uses: fork-join helpers,
// parallel for, parallel merge sort, selection and priority concurrent
// writes (write-min). It has no Euler tours or list ranking: the ordered
// dendrogram takes its vertex distances from a sequential breadth-first
// search (dendrogram.VertexDistances), which at two workers beats
// work-efficient list ranking below about 300k tree arcs.
//
// All parallelism runs on a persistent work-stealing fork-join scheduler
// (see scheduler.go): a process-wide pool of GOMAXPROCS workers with
// per-worker steal queues, a Group/Spawn/Sync task API with panic
// propagation, and work-first inline execution so that subproblems below
// the sequential cutoffs never leave the goroutine that forked them. The
// primitives here — Do, For, ForRange, ReduceMin and everything built
// on them — are thin layers over that scheduler.
//
// The worker count follows runtime.GOMAXPROCS, matching the paper's
// practice of varying thread count externally for scalability experiments;
// with GOMAXPROCS=1 every primitive degenerates to plain sequential code
// with no scheduler involvement. Results are deterministic: identical for
// any worker count and any steal schedule.
package parallel

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers reports the number of workers parallel operations will use.
func Workers() int { return runtime.GOMAXPROCS(0) }

// Do runs f and g as a two-way fork-join: g becomes stealable by idle pool
// workers while f runs on the calling goroutine; if no worker takes g it is
// run inline, so the pair costs no goroutine switch at all. If either
// function panics, both still run to completion and the first panic is
// re-raised here — the same contract at every worker count.
func Do(f, g func()) {
	gr := newGroup()
	if Workers() == 1 {
		gr.Run(f)
		gr.Run(g)
	} else {
		gr.Spawn(g)
		gr.Run(f)
	}
	gr.Sync()
	gr.release()
}

// For executes body(i) for i in [0, n) in parallel, chunking work so that
// each task covers at least grain iterations. grain <= 0 selects a default.
func For(n, grain int, body func(i int)) {
	ForRange(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForRange executes body(lo, hi) over a partition of [0, n) in parallel.
// Chunks are handed out by an atomic cursor to a group of scheduler tasks
// (one per worker), so load imbalance between chunks self-corrects; with a
// single worker, or when n fits in one grain, body runs inline. A panic in
// body re-raises here; how many other chunks still run once a chunk has
// panicked is unspecified (panicking executions carry no determinism
// guarantee).
func ForRange(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	p := Workers()
	if grain <= 0 {
		grain = n/(8*p) + 1
	}
	if p == 1 || n <= grain {
		body(0, n)
		return
	}
	chunks := (n + grain - 1) / grain
	if chunks > 8*p {
		chunks = 8 * p
		grain = (n + chunks - 1) / chunks
		chunks = (n + grain - 1) / grain
	}
	var next int64
	loop := func() {
		for {
			c := int(atomic.AddInt64(&next, 1)) - 1
			if c >= chunks {
				return
			}
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			body(lo, hi)
		}
	}
	workers := p
	if workers > chunks {
		workers = chunks
	}
	gr := newGroup()
	for w := 1; w < workers; w++ {
		gr.Spawn(loop)
	}
	gr.Run(loop)
	gr.Sync()
	gr.release()
}

// ReduceMin finds, over i in [0,n), the minimum key with its index using a
// per-worker local reduction. value returns the key for index i; indices with
// key = +Inf are skipped. Returns (-1, +Inf) when no finite key exists.
// Ties are broken toward the smaller index, making the result deterministic.
func ReduceMin(n, grain int, value func(i int) float64) (int, float64) {
	type best struct {
		idx int
		key float64
	}
	var mu sync.Mutex
	global := best{-1, math.Inf(1)}
	ForRange(n, grain, func(lo, hi int) {
		local := best{-1, math.Inf(1)}
		for i := lo; i < hi; i++ {
			if v := value(i); v < local.key || (v == local.key && local.idx >= 0 && i < local.idx) {
				local = best{i, v}
			}
		}
		if local.idx < 0 {
			return
		}
		mu.Lock()
		if local.key < global.key || (local.key == global.key && (global.idx < 0 || local.idx < global.idx)) {
			global = local
		}
		mu.Unlock()
	})
	return global.idx, global.key
}

// AtomicMinFloat64 implements the paper's WriteMin priority concurrent write
// for float64 values. The stored value only decreases.
type AtomicMinFloat64 struct{ bits uint64 }

// NewAtomicMinFloat64 returns a write-min cell initialized to v.
func NewAtomicMinFloat64(v float64) *AtomicMinFloat64 {
	a := &AtomicMinFloat64{}
	atomic.StoreUint64(&a.bits, math.Float64bits(v))
	return a
}

// Load returns the current minimum.
func (a *AtomicMinFloat64) Load() float64 {
	return math.Float64frombits(atomic.LoadUint64(&a.bits))
}

// Min atomically lowers the stored value to v if v is smaller. It reports
// whether the store happened.
func (a *AtomicMinFloat64) Min(v float64) bool {
	for {
		old := atomic.LoadUint64(&a.bits)
		if math.Float64frombits(old) <= v {
			return false
		}
		if atomic.CompareAndSwapUint64(&a.bits, old, math.Float64bits(v)) {
			return true
		}
	}
}
