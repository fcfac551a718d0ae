package parallel

// Persistent work-stealing fork-join scheduler.
//
// Instead of spawning fresh goroutines on every fork (the seed
// implementation), all parallelism in this package runs on a process-wide
// pool of GOMAXPROCS worker goroutines, started lazily on first use. The
// design is Cilk-style "work-first" fork-join, adapted to Go's lack of
// goroutine-local storage:
//
//   - Spawn publishes a stealable task handle and returns immediately; the
//     spawning goroutine keeps executing its own code. Sync then claims the
//     group's still-unstolen tasks newest-first (LIFO) and runs them inline
//     on the current goroutine, so small subproblems never migrate: they are
//     executed exactly where a sequential program would execute them, in
//     depth-first order. This frame-local LIFO is the "local end of the
//     deque" of a classic work-stealing scheduler.
//   - Each worker owns one steal queue (a mutex-protected FIFO ring).
//     Publishes are distributed round-robin across the queues; idle workers
//     drain their own queue first and then scan the others, always stealing
//     the oldest task (FIFO), which is the largest-granularity work — the
//     top end of the deque.
//   - A goroutine that reaches Sync with stolen tasks still running does not
//     block idle: it leapfrogs, stealing and running unrelated pending tasks
//     until its own group drains, then parks on a per-group channel.
//
// Claiming is a single compare-and-swap on the task state, so every task
// runs exactly once no matter how many queue entries or claimants race for
// it. Deadlock freedom follows from the fork-join structure: a Sync only
// waits on tasks that some other goroutine is actively executing, and the
// executor of the deepest in-flight task always finds its own spawns
// unclaimed and finishes them inline.
//
// Panics inside spawned tasks are captured and re-raised (first one wins,
// original panic value preserved) on the goroutine that calls Sync, after
// all of the group's tasks have completed, so a panicking parallel phase
// unwinds exactly like a panicking sequential loop would.
//
// Determinism: the scheduler never makes results depend on the interleaving
// — all primitives built on it either write disjoint locations or combine
// per-chunk results with deterministic, order-independent tie-breaking — so
// every algorithm in this library returns identical output for any
// GOMAXPROCS value and any steal schedule.

import (
	"sync"
	"sync/atomic"
)

// task states. A task moves taskPending -> taskTaken exactly once; the CAS
// winner runs it. Queue entries holding a taken task are discarded by
// thieves.
const (
	taskPending int32 = iota
	taskTaken
)

type task struct {
	fn    func()
	g     *Group
	state atomic.Int32
}

// groupInline is the number of task slots stored inside the Group itself;
// two covers Do and three-way forks (two spawns plus an inline run) without
// any per-spawn allocation.
const groupInline = 2

// A Group is a fork-join scope: Spawn hands tasks to the scheduler, Run
// executes a task inline as part of the group, and Sync waits for all of
// them, re-raising the first panic any of them raised. The zero value is
// ready to use. A Group must not be copied, and Spawn/Run/Sync must all be
// called from the same goroutine; after Sync returns the Group may be
// reused for another round.
type Group struct {
	inline [groupInline]task
	extra  []*task
	ntasks int

	pending atomic.Int32 // published tasks not yet finished
	waiting atomic.Bool  // owner is parked in Sync
	wake    chan struct{}

	pan atomic.Pointer[panicValue]
}

type panicValue struct {
	val any
}

// groupPool recycles Groups for the package's own fork-join entry points
// (Do, ForRange), amortizing the Group and wake-channel allocations.
// Recycling is safe even though stale queue entries may still reference a
// recycled group's inline task slots: a slot's state only returns to
// taskPending (with its new fn already written) at the next Spawn, and the
// claim CAS guarantees each published task runs exactly once regardless of
// how many queue entries point at it.
var groupPool = sync.Pool{New: func() any { return new(Group) }}

// newGroup returns a pooled Group ready for a fresh round of spawns.
func newGroup() *Group { return groupPool.Get().(*Group) }

// release returns a synced Group to the pool. Callers must not release a
// Group whose Sync panicked (just drop it) or one they might still use.
func (g *Group) release() { groupPool.Put(g) }

// Spawn schedules fn to run as part of the group. With a single worker it
// runs fn inline immediately (capturing panics for Sync, like the parallel
// path); otherwise fn becomes stealable by idle workers and is otherwise
// run inline by Sync.
func (g *Group) Spawn(fn func()) {
	if Workers() == 1 {
		g.Run(fn)
		return
	}
	var t *task
	if g.ntasks < groupInline {
		t = &g.inline[g.ntasks]
		t.fn, t.g = fn, g
		t.state.Store(taskPending)
	} else {
		t = &task{fn: fn, g: g}
		g.extra = append(g.extra, t)
	}
	g.ntasks++
	if g.wake == nil {
		// Allocated before the first publish, so thieves (ordered after the
		// publish by the queue lock and the claim CAS) always observe it.
		g.wake = make(chan struct{}, 1)
	}
	g.pending.Add(1)
	getPool().publish(t)
}

// Run executes fn inline as part of the group, capturing a panic instead of
// propagating it so that Sync still waits for the group's spawned tasks
// before unwinding. The panic re-surfaces at Sync.
func (g *Group) Run(fn func()) {
	defer g.recoverInto()
	fn()
}

// Sync runs the group's unstolen tasks inline (newest first), waits for the
// stolen ones — stealing unrelated work while it waits — and then re-raises
// the first captured panic, if any. It resets the group for reuse.
func (g *Group) Sync() {
	for i := g.ntasks - 1; i >= 0; i-- {
		var t *task
		if i < groupInline {
			t = &g.inline[i]
		} else {
			t = g.extra[i-groupInline]
		}
		if t.state.CompareAndSwap(taskPending, taskTaken) {
			t.run()
		}
	}
	if g.pending.Load() > 0 {
		p := getPool()
		for g.pending.Load() > 0 {
			if t := p.steal(-1); t != nil {
				t.run()
				continue
			}
			g.park()
		}
	}
	g.ntasks = 0
	for i := range g.extra {
		g.extra[i] = nil
	}
	g.extra = g.extra[:0]
	if pv := g.pan.Swap(nil); pv != nil {
		panic(pv.val)
	}
}

// recoverInto records the first panic of the group.
func (g *Group) recoverInto() {
	if r := recover(); r != nil {
		g.pan.CompareAndSwap(nil, &panicValue{val: r})
	}
}

// run executes a claimed task and signals its group. The claimant owns the
// slot after winning the CAS, so it clears fn and g up front: stale queue
// entries (and pooled Groups awaiting reuse) then hold no references to the
// closure or anything it captured.
func (t *task) run() {
	g, fn := t.g, t.fn
	t.fn, t.g = nil, nil
	defer g.finish()
	defer g.recoverInto()
	fn()
}

// finish marks one task done and wakes the group's parked owner, if any.
func (g *Group) finish() {
	if g.pending.Add(-1) == 0 && g.waiting.Load() {
		select {
		case g.wake <- struct{}{}:
		default:
		}
	}
}

// park blocks the owner until the pending count may have reached zero.
// Spurious wakeups are fine: Sync re-checks pending in its loop.
func (g *Group) park() {
	g.waiting.Store(true)
	if g.pending.Load() > 0 {
		<-g.wake
	}
	g.waiting.Store(false)
}

// ---------------------------------------------------------------- the pool

// queue is one worker's steal queue: a mutex-protected FIFO of task
// handles. Thieves pop from the head (the oldest, coarsest-granularity
// spawn). Entries whose task lost its claim race are dropped on pop.
type queue struct {
	mu   sync.Mutex
	head int
	q    []*task
}

func (s *queue) push(t *task) {
	s.mu.Lock()
	s.q = append(s.q, t)
	s.mu.Unlock()
}

// pop removes and returns the oldest still-pending task, or nil.
// It also drops already-taken entries and compacts the ring.
func (s *queue) pop() (*task, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for s.head < len(s.q) {
		t := s.q[s.head]
		s.q[s.head] = nil
		s.head++
		if s.head == len(s.q) {
			s.q = s.q[:0]
			s.head = 0
		} else if s.head > 64 && s.head > len(s.q)/2 {
			n := copy(s.q, s.q[s.head:])
			for i := n; i < len(s.q); i++ {
				s.q[i] = nil
			}
			s.q = s.q[:n]
			s.head = 0
		}
		removed++
		if t.state.CompareAndSwap(taskPending, taskTaken) {
			return t, removed
		}
	}
	return nil, removed
}

// pool is the process-wide scheduler state.
type pool struct {
	mu       sync.Mutex // guards workers/queues growth and cond
	cond     *sync.Cond
	sleepers atomic.Int32
	items    atomic.Int64             // queued entries across all queues
	queues   atomic.Pointer[[]*queue] // grown copy-on-write
	nworkers int                      // spawned worker goroutines
	rr       atomic.Uint32            // round-robin publish/steal cursor
}

var (
	poolOnce sync.Once
	thePool  *pool
)

func getPool() *pool {
	poolOnce.Do(func() {
		thePool = &pool{}
		thePool.cond = sync.NewCond(&thePool.mu)
	})
	return thePool
}

// ensure grows the pool to at least target workers (and steal queues).
// Workers are never torn down when GOMAXPROCS shrinks; the entry-point
// sequential cutoffs simply stop feeding them, and they park.
func (p *pool) ensure(target int) {
	if len(*p.loadQueues()) >= target {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	cur := *p.queues.Load()
	if len(cur) >= target {
		return
	}
	grown := make([]*queue, target)
	copy(grown, cur)
	for i := len(cur); i < target; i++ {
		grown[i] = &queue{}
	}
	p.queues.Store(&grown)
	for ; p.nworkers < target; p.nworkers++ {
		go p.worker(p.nworkers)
	}
}

func (p *pool) loadQueues() *[]*queue {
	qs := p.queues.Load()
	if qs == nil {
		empty := []*queue{}
		p.mu.Lock()
		if p.queues.Load() == nil {
			p.queues.Store(&empty)
		}
		p.mu.Unlock()
		qs = p.queues.Load()
	}
	return qs
}

// publish makes t stealable and wakes a parked worker.
func (p *pool) publish(t *task) {
	p.ensure(Workers())
	qs := *p.queues.Load()
	i := int(p.rr.Add(1) % uint32(len(qs))) // mod in uint32: safe on 32-bit ints
	qs[i].push(t)
	p.items.Add(1)
	if p.sleepers.Load() > 0 {
		p.mu.Lock()
		p.cond.Signal()
		p.mu.Unlock()
	}
}

// steal scans all queues for a pending task, preferring queue pref (a
// worker's own queue; pass -1 for no preference). FIFO within each queue.
func (p *pool) steal(pref int) *task {
	qsp := p.queues.Load()
	if qsp == nil {
		return nil
	}
	qs := *qsp
	n := len(qs)
	if n == 0 {
		return nil
	}
	start := pref
	if start < 0 || start >= n {
		start = int(p.rr.Add(1) % uint32(n))
	}
	for k := 0; k < n; k++ {
		t, removed := qs[(start+k)%n].pop()
		if removed > 0 {
			p.items.Add(int64(-removed))
		}
		if t != nil {
			return t
		}
	}
	return nil
}

// worker is the run loop of one pool goroutine.
func (p *pool) worker(id int) {
	for {
		if t := p.steal(id); t != nil {
			t.run()
			continue
		}
		p.mu.Lock()
		p.sleepers.Add(1)
		for p.items.Load() == 0 {
			p.cond.Wait()
		}
		p.sleepers.Add(-1)
		p.mu.Unlock()
	}
}
