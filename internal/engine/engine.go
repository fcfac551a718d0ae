// Package engine is the staged pipeline behind the public parclust.Index:
// it decomposes the clustering call chain into explicit stages —
//
//	tree ──> coreDist(minPts) ──> mst(kind, algo, minPts) ──> dendrogram+cut
//
// — memoizes every stage output keyed on its parameters, and shares the
// expensive upstream stages across queries. A parameter change recomputes
// only its own stage and the stages downstream of it: a new minPts reuses
// the tree and recomputes core distances + MST; a new MST algorithm reuses
// the tree and core distances; an eps change touches nothing but the
// precomputed cut structure.
//
// # One fetch path
//
// The stages form four families — tree, core distances, MST, hierarchy —
// and each family holds its in-flight table and its counters (see family).
// Every stage entry point (Tree, CanonTree, CoreDist, EMST, Hierarchy) is
// one call to family.fetch: look the stage up in the memo; on a miss, join
// the stage's flight, whose leader builds it under the build mutex, and
// look again until a lookup lands on a published stage. The counters are
// read off that path. A request answered by its first look counts one hit.
// A request that parks on a flight another request leads counts one
// coalesced wait (one more only if an abort or a mutation sends it round
// again); the leader counts neither. Builds count publications: every
// stage a flight publishes, upstream stages it needed included, counts one
// build in its own family, and so does each compaction's tree.
//
// # Concurrency
//
// Stage outputs are immutable once published and may be read from any
// goroutine. Stage computation is serialized by a per-engine build mutex,
// because MST runs mutate the shared tree's transient annotations (the
// per-minPts CDMin/CDMax core-distance bounds and the per-round union-find
// component labels); publication happens under a registry RW-mutex, so a
// memoized result is read lock-free of the build path. Pure read queries
// (k-NN, range, DBSCAN component formation, OPTICS) traverse only the
// tree's immutable structure — nodes' boxes, the kd-ordered rows, and the
// Orig/Inv permutations — and therefore run concurrently with each other
// and with an in-flight MST computation (which writes only the disjoint
// annotation fields). Per-round MST buffers come from a process-wide
// sync.Pool of mst.Workspace, never from engine state, so a run leaves no
// mutable scratch behind on the engine.
//
// # Cancellation and failure
//
// Every stage entry takes a context. Concurrent requests for one unbuilt
// stage coalesce into a single flight whose leader runs the build; the
// flight counts its interested waiters, and each waiter whose context ends
// abandons the flight individually. Only when the last waiter abandons is
// the build's abort flag set — the leader's build then unwinds at its next
// cooperative checkpoint (kd-tree node, Borůvka round, WSPD traversal) via
// a panic-sentinel recovered at the flight boundary, publishing nothing.
// The contract on failure paths:
//
//   - An aborted or panicking build never poisons the memo: no partial
//     stage is published, and the next request starts a clean flight.
//   - All parked followers are woken with the flight's error — ErrAborted,
//     ErrOverloaded, or a *BuildPanicError carrying the stage name. A
//     follower that is still live after ErrAborted retries as the new
//     leader rather than failing the caller.
//   - A caller's own context expiry is reported as that context's error
//     (context.Canceled / DeadlineExceeded), never as ErrAborted.
//   - An optional BuildGate bounds cold builds: it is consulted once per
//     flight, by the leader only, so memoized reads and coalesced
//     followers never consume build capacity.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"parclust/internal/abort"
	"parclust/internal/delaunay"
	"parclust/internal/dendrogram"
	"parclust/internal/faultinject"
	"parclust/internal/geometry"
	"parclust/internal/hdbscan"
	"parclust/internal/kdtree"
	"parclust/internal/metric"
	"parclust/internal/mst"
	"parclust/internal/wspd"
)

// ErrAborted is returned by a stage entry whose build was cooperatively
// cancelled: every request interested in the flight abandoned it (each on
// its own context), so the leader unwound at the next checkpoint and
// published nothing. A caller whose own context is still live never sees
// ErrAborted — it retries the flight as the new leader.
var ErrAborted = errors.New("engine: stage build aborted")

// ErrOverloaded is returned by a stage entry that needed a cold build while
// the engine's BuildGate was saturated. Nothing was built or published;
// warm (memoized) reads never consult the gate.
var ErrOverloaded = errors.New("engine: cold build rejected, build capacity saturated")

// BuildPanicError wraps a panic that escaped a stage build. The panic is
// recovered at the flight boundary so every parked follower is woken with
// this error and the memo map stays unpoisoned; the next identical query
// starts a fresh build.
type BuildPanicError struct {
	Stage string // "tree", "core", "mst", or "hier"
	Value any    // the recovered panic value
}

func (e *BuildPanicError) Error() string {
	return fmt.Sprintf("engine: %s stage build panicked: %v", e.Stage, e.Value)
}

// BuildGate admits one cold stage build: it returns (release, true) to
// admit — release must be called when the build finishes — or (nil, false)
// to reject, surfacing as ErrOverloaded. The gate is consulted only by
// singleflight leaders, so coalesced followers of an admitted build never
// consume extra capacity.
type BuildGate func() (release func(), ok bool)

// EMSTAlgo selects the EMST variant; values mirror the public
// parclust.EMSTAlgorithm constants.
type EMSTAlgo uint8

const (
	EMSTMemoGFK EMSTAlgo = iota
	EMSTGFK
	EMSTNaive
	EMSTBoruvka
	EMSTDelaunay2D
	EMSTWSPDBoruvka
)

// Kind distinguishes the two MST stage families: plain metric MSTs (EMST)
// and mutual-reachability MSTs (HDBSCAN*).
type Kind uint8

const (
	KindEMST Kind = iota
	KindHDBSCAN
)

// HierStage is a memoized hierarchy stage output: the MST, the ordered
// dendrogram built from it, and the lazily-built cut structure. All fields
// are immutable after publication; CoreDist is nil for single-linkage
// hierarchies. Report is the build report of the flight that published the
// stage (see exec); it is zero for a stage seeded from a snapshot.
type HierStage struct {
	N        int
	MST      []mst.Edge
	CoreDist []float64
	MinPts   int
	Dendro   *dendrogram.Dendrogram
	Report   mst.Stats

	cutOnce sync.Once
	cutter  *dendrogram.Cutter

	// Cut-result cache: flat cuts keyed on eps, bounded to maxCutResults
	// entries per stage with FIFO eviction. The cache belongs to the stage,
	// so stage identity doubles as the version key — anything that produced
	// a new HierStage (a different minPts, algorithm, or pipeline) starts
	// from an empty cache, and the downstream invalidation of the stage DAG
	// carries over to cut results for free. eng is the owning engine (nil
	// for stages built outside one, such as ApproxOPTICS's), which carries
	// the hit/build counters and the resident-bytes account.
	cutMu    sync.Mutex
	cutOrder []float64
	cuts     map[float64]dendrogram.Clustering
	eng      *Engine
}

// maxCutResults bounds the cut-result cache per hierarchy stage. A cached
// cut retains ~4·n bytes of labels; 16 entries cover a generous eps ladder
// while keeping the worst-case retained memory at 64·n bytes per stage.
const maxCutResults = 16

// Cutter returns the stage's precomputed cut structure, building it on
// first use (safe for concurrent callers).
func (h *HierStage) Cutter() *dendrogram.Cutter {
	h.cutOnce.Do(func() {
		h.cutter = dendrogram.NewCutter(h.N, h.MST, h.CoreDist)
	})
	return h.cutter
}

// CutAt returns the flat clustering at radius eps, serving repeated radii
// from the stage's cut-result cache: a hit is an O(1) map lookup returning
// the shared labels slice (callers must treat it as read-only), a miss runs
// the near-O(n) cut off the precomputed merge order and caches the result.
// NaN radii are computed but never cached (NaN map keys are unretrievable).
func (h *HierStage) CutAt(eps float64) dendrogram.Clustering {
	if !math.IsNaN(eps) {
		h.cutMu.Lock()
		if res, ok := h.cuts[eps]; ok {
			h.cutMu.Unlock()
			if h.eng != nil {
				h.eng.c.cutHits.Add(1)
			}
			return res
		}
		h.cutMu.Unlock()
	}
	res := h.Cutter().CutAt(eps)
	if h.eng != nil {
		h.eng.c.cutBuilds.Add(1)
	}
	if math.IsNaN(eps) {
		return res
	}
	h.cutMu.Lock()
	if _, ok := h.cuts[eps]; !ok {
		if h.cuts == nil {
			h.cuts = make(map[float64]dendrogram.Clustering, maxCutResults)
		}
		if len(h.cutOrder) >= maxCutResults {
			oldest := h.cutOrder[0]
			h.cutOrder = h.cutOrder[1:]
			if victim, ok := h.cuts[oldest]; ok {
				delete(h.cuts, oldest)
				if h.eng != nil {
					h.eng.cutBytes.Add(-cutResultBytes(victim))
				}
			}
		}
		h.cuts[eps] = res
		h.cutOrder = append(h.cutOrder, eps)
		if h.eng != nil {
			h.eng.cutBytes.Add(cutResultBytes(res))
		}
	}
	h.cutMu.Unlock()
	return res
}

// cutResultBytes is the resident size charged for one cached cut: the
// labels slice plus map/slice bookkeeping.
func cutResultBytes(c dendrogram.Clustering) int64 {
	return int64(4*len(c.Labels)) + 64
}

// CutCacheBytes returns the resident bytes currently retained by the
// engine's cut-result caches across all hierarchy stages.
func (e *Engine) CutCacheBytes() int64 { return e.cutBytes.Load() }

// wsPool shares MST round workspaces across engines and runs: a run checks
// one out for its duration (runs are serialized per engine by buildMu, and
// workspaces never alias returned results), so engines hold no per-instance
// mutable scratch.
var wsPool = sync.Pool{New: func() any { return mst.NewWorkspace() }}

// Engine memoizes the staged clustering pipeline over one immutable
// prepared point set. Use New, then query stages; all methods are safe for
// concurrent use.
type Engine struct {
	// Pts is the prepared base point set (validated, and unit-normalized
	// for the angular kernel). Its rows are never written in place, but
	// compaction (see dynamic.go) replaces the whole struct under
	// buildMu+regMu — read it under regMu.RLock (or buildMu), or through
	// SnapshotView for a stage-coherent copy.
	Pts geometry.Points
	// Kern is the distance kernel every stage runs under.
	Kern metric.Metric

	// buildMu serializes stage computation: MST runs annotate the shared
	// tree (core-distance bounds, per-round component labels), so at most
	// one computation may be in flight. Reads of published stages never
	// take it.
	buildMu sync.Mutex
	// regMu guards the memo registry below. Write-locked only to publish a
	// finished stage; read-locked on every lookup.
	regMu sync.RWMutex

	tree  *kdtree.Tree
	cores map[int][]float64 // minPts -> core distances, original-id order
	msts  map[StageKey]mstStage
	hiers map[StageKey]*HierStage

	// stages holds the family of each memo above: its in-flight table and
	// its build, hit and coalesced counters.
	stages struct{ tree, core, mst, hier family }

	// dyn is the dynamic-layer state (overlay inserts, tombstoned deletes,
	// external-id map); nil until the first mutation. Published under regMu
	// like the stage maps; replaced wholesale, never written in place. See
	// dynamic.go.
	dyn *dynState

	// epoch counts mutations; bumped at the start of every Insert/Delete,
	// before the mutation is applied (see MutationEpoch).
	epoch atomic.Uint64

	// annotated is the minPts the tree's CDMin/CDMax annotations currently
	// reflect (0: none). Guarded by buildMu.
	annotated int

	// f32 selects the float32 SoA fast path for every tree the engine
	// builds (or seeds). Set once via EnableFloat32 before the engine is
	// shared; read-only afterwards.
	f32 bool

	// cutBytes is the resident size of all stages' cut-result caches.
	cutBytes atomic.Int64

	// gate, when set, admits cold stage builds (see BuildGate).
	gate atomic.Pointer[BuildGate]

	c counters
}

// SetBuildGate installs the engine's cold-build admission gate. Safe to
// call concurrently with queries; a nil-func store is rejected.
func (e *Engine) SetBuildGate(g BuildGate) {
	if g != nil {
		e.gate.Store(&g)
	}
}

// New returns an engine over the prepared points. The caller has already
// validated pts and normalized it for the kernel; the engine takes
// ownership in the sense that pts must not be mutated afterwards.
func New(pts geometry.Points, kern metric.Metric) *Engine {
	e := &Engine{
		Pts:   pts,
		Kern:  kern,
		cores: make(map[int][]float64),
		msts:  make(map[StageKey]mstStage),
		hiers: make(map[StageKey]*HierStage),
	}
	e.stages.tree.name, e.stages.core.name = "tree", "core"
	e.stages.mst.name, e.stages.hier.name = "mst", "hier"
	return e
}

// EnableFloat32 opts the engine into the float32 SoA representation:
// every tree it builds from now on carries the lane-scan fast path, and an
// already-built (or seeded) tree is converted in place. Call before the
// engine is shared with queries — the flag itself is not synchronized for
// mid-flight toggling. Fails (leaving the engine on the float64 path) if
// a coordinate exceeds the float32 magnitude bound.
func (e *Engine) EnableFloat32() error {
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	e.regMu.RLock()
	t := e.tree
	e.regMu.RUnlock()
	if t != nil {
		if err := t.EnableFloat32(); err != nil {
			return err
		}
	} else if err := metric.ValidateRows32(e.Pts); err != nil {
		return err
	}
	e.f32 = true
	return nil
}

// Float32 reports whether the engine runs on the float32 fast path.
func (e *Engine) Float32() bool { return e.f32 }

// family is one stage family: tree, core distances, MST or hierarchy. Its
// in-flight table holds the flights of its stages being built, so
// concurrent requests for one unbuilt stage park on a single build instead
// of queueing on buildMu. The package comment says what its counters count.
type family struct {
	name string // "tree", "core", "mst" or "hier"; see TestBuildHook

	mu       sync.Mutex // guards inflight
	inflight map[StageKey]*flight

	builds, hits, coalesced atomic.Int64
}

// flight is one in-flight stage computation. done is closed (after err is
// set) once the leader has published the stage output or failed; waiters
// counts the requests still interested in the result — the leader's own
// share plus every parked follower. A request that abandons the flight on
// its own context decrements waiters, and whoever drops the count to zero
// sets the abort flag: the leader unwinds at its next checkpoint, because
// nobody is left to consume the result.
type flight struct {
	done    chan struct{}
	stop    chan struct{} // closed when the leader concludes; parks the ctx watcher
	err     error         // write-once before close(done)
	waiters atomic.Int64
	exec
}

// exec is what a stage build sees of its flight: the abort flag its
// cooperative checkpoints poll, and the report its phase times and MST
// counters are recorded into. Every stage the flight publishes keeps a copy
// of the report as it stands at publication, so a stage's report covers
// exactly what its publishing flight ran — upstream stages included when
// that flight built them — and every reader of the stage (the leader,
// coalesced followers, later hits) reads the same value.
type exec struct {
	abort  abort.Flag
	report mst.Stats
}

// TestBuildHook, when non-nil, is invoked by a singleflight leader (with the
// stage family "tree", "core", "mst", or "hier") after it has registered its
// flight and before it starts the build. Tests use it to hold a cold build
// open until a known number of concurrent requests have parked on the
// flight; it must never be set outside tests.
var TestBuildHook func(stage string)

// fetch reads stage key of family f through hit, which looks it up in the
// memo under regMu, stores it in the caller's variable and reports whether
// it was there. A first look that lands counts a hit. Otherwise the request
// joins the key's flight, whose leader runs build, and looks again until a
// look lands (a mutation can clear the stage before it). ctx (nil means
// background) bounds the wait; see coalesce for the error contract.
func (f *family) fetch(ctx context.Context, e *Engine, key StageKey, hit func() bool, build func(x *exec)) error {
	if hit() {
		f.hits.Add(1)
		return nil
	}
	for {
		if err := f.coalesce(ctx, e, key, build); err != nil {
			return err
		}
		if hit() {
			return nil
		}
	}
}

// coalesce runs build under singleflight semantics for key: the first
// caller becomes the leader and executes build (which publishes the stage
// output to the memo registry); callers that arrive while the leader is
// still running count a coalesced wait and park until the leader finishes —
// or until their own ctx is done, in which case they abandon the flight.
// When every interested request is gone the flight's abort flag is set and
// the leader unwinds at its next cancellation checkpoint.
//
// On a nil return the stage output for key is published. Errors: ctx.Err()
// when this request gave up; ErrOverloaded when the BuildGate rejected the
// cold build; *BuildPanicError when the build panicked (the flight is
// cleared and every follower is woken — the memo map is never poisoned).
// ErrAborted is only ever surfaced to requests whose own ctx is done
// concurrently with the abort; a live follower that finds its flight
// aborted retries as the new leader.
func (f *family) coalesce(ctx context.Context, e *Engine, key StageKey, build func(x *exec)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		f.mu.Lock()
		if fl, ok := f.inflight[key]; ok {
			fl.waiters.Add(1)
			f.mu.Unlock()
			f.coalesced.Add(1)
			select {
			case <-fl.done:
				if errors.Is(fl.err, ErrAborted) && ctx.Err() == nil {
					// The abort raced this follower's arrival: everyone else
					// left, but this request is still live. Try again as the
					// new leader.
					continue
				}
				return fl.err
			case <-ctx.Done():
				if fl.waiters.Add(-1) == 0 {
					fl.abort.Set()
				}
				return ctx.Err()
			}
		}
		fl := &flight{done: make(chan struct{}), stop: make(chan struct{})}
		fl.waiters.Store(1) // the leader's own share
		if f.inflight == nil {
			f.inflight = make(map[StageKey]*flight)
		}
		f.inflight[key] = fl
		f.mu.Unlock()
		return f.lead(ctx, e, key, fl, build)
	}
}

// lead executes one flight as its leader: it watches ctx to release the
// leader's waiter share, runs build under buildMu once the gate, the test
// hook and the fault point let it, recovers aborts and panics into errors,
// and — in every path — clears the flight and wakes all followers.
func (f *family) lead(ctx context.Context, e *Engine, key StageKey, fl *flight, build func(x *exec)) (err error) {
	if done := ctx.Done(); done != nil {
		go func() {
			select {
			case <-done:
				if fl.waiters.Add(-1) == 0 {
					fl.abort.Set()
				}
			case <-fl.stop:
			}
		}()
	}
	defer func() {
		close(fl.stop)
		if r := recover(); r != nil {
			if _, ok := r.(abort.Signal); ok {
				err = ErrAborted
				e.c.buildAborts.Add(1)
			} else {
				err = &BuildPanicError{Stage: f.name, Value: r}
				e.c.buildPanics.Add(1)
			}
		}
		fl.err = err
		f.mu.Lock()
		delete(f.inflight, key)
		f.mu.Unlock()
		close(fl.done)
		if errors.Is(err, ErrAborted) && ctx.Err() != nil {
			// The leader itself abandoned too; report its own ctx error so
			// callers see a deadline/cancellation, not the internal sentinel.
			err = ctx.Err()
		}
	}()
	if gate := e.gate.Load(); gate != nil {
		release, ok := (*gate)()
		if !ok {
			return ErrOverloaded
		}
		defer release()
	}
	if hook := TestBuildHook; hook != nil {
		hook(f.name)
	}
	if ferr := faultinject.Check("engine.build"); ferr != nil {
		return ferr
	}
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	build(&fl.exec)
	return nil
}

// N returns the number of live indexed points (the base set adjusted for
// uncompacted inserts and deletes).
func (e *Engine) N() int { return e.LiveN() }

// Tree returns the shared k-d tree, building it on first use. ctx (nil
// means background) bounds a cold build: see coalesce for the error
// contract. Memoized reads never fail.
func (e *Engine) Tree(ctx context.Context) (*kdtree.Tree, error) {
	var t *kdtree.Tree
	err := e.stages.tree.fetch(ctx, e, StageKey{}, func() bool {
		e.regMu.RLock()
		t = e.tree
		e.regMu.RUnlock()
		return t != nil
	}, func(x *exec) { e.treeLocked(x) })
	return t, err
}

// treeLocked is the build-mutex-held tree stage body. The *Locked bodies
// count the builds they publish; only fetch counts hits.
func (e *Engine) treeLocked(x *exec) *kdtree.Tree {
	e.regMu.RLock()
	t := e.tree
	e.regMu.RUnlock()
	if t != nil {
		return t
	}
	t = e.buildTreeLocked(x, e.Pts)
	e.regMu.Lock()
	e.tree = t
	e.regMu.Unlock()
	return t
}

// buildTreeLocked builds a tree over pts the one way every engine tree is
// built — leaf size 1, which the WSPD construction requires and every other
// stage and query accepts, plus the float32 panels when enabled — and
// counts the build. The caller publishes it.
func (e *Engine) buildTreeLocked(x *exec, pts geometry.Points) (t *kdtree.Tree) {
	x.report.Time(mst.PhaseBuildTree, func() {
		t = kdtree.BuildMetricCancel(pts, 1, e.Kern, &x.abort)
		if e.f32 {
			// EnableFloat32 and the Index's Insert validated every row, so
			// this can fail only on internal inconsistency.
			if err := t.EnableFloat32(); err != nil {
				panic(fmt.Sprintf("engine: float32 attach failed after validation: %v", err))
			}
		}
	})
	e.stages.tree.builds.Add(1)
	return t
}

// CoreDist returns the core distances for minPts in original-id order,
// computing (and memoizing) them on first use. The returned slice is shared
// and must not be mutated. ctx bounds a cold build (see coalesce).
func (e *Engine) CoreDist(ctx context.Context, minPts int) ([]float64, error) {
	var cd []float64
	err := e.stages.core.fetch(ctx, e, StageKey{MinPts: minPts}, func() (ok bool) {
		e.regMu.RLock()
		cd, ok = e.cores[minPts]
		e.regMu.RUnlock()
		return ok
	}, func(x *exec) { e.coreDistLocked(x, minPts) })
	return cd, err
}

// CoreDistTree returns the core distances for minPts together with the
// canonical tree they were computed over, for queries that need both
// stages of one point set (OPTICS). It accepts a pair only if, under one
// regMu read lock, the published cores[minPts] is still the slice it
// fetched and the engine is clean: a mutation clears that memo and marks
// the engine dirty under the same lock, and the tree changes only through
// a mutation's compaction. Otherwise it fetches again.
func (e *Engine) CoreDistTree(ctx context.Context, minPts int) (*kdtree.Tree, []float64, error) {
	for {
		if _, err := e.CanonTree(ctx); err != nil {
			return nil, nil, err
		}
		cd, err := e.CoreDist(ctx, minPts)
		if err != nil {
			return nil, nil, err
		}
		e.regMu.RLock()
		t, cur, d := e.tree, e.cores[minPts], e.dyn
		e.regMu.RUnlock()
		same := len(cur) == len(cd) && (len(cd) == 0 || &cur[0] == &cd[0])
		if t != nil && same && (d == nil || !d.dirty) {
			return t, cd, nil
		}
	}
}

func (e *Engine) coreDistLocked(x *exec, minPts int) []float64 {
	e.regMu.RLock()
	cd, ok := e.cores[minPts]
	e.regMu.RUnlock()
	if ok {
		return cd
	}
	t := e.canonLocked(x)
	x.report.Time(mst.PhaseCoreDist, func() {
		cd = t.CoreDistancesCancel(minPts, &x.abort)
	})
	e.stages.core.builds.Add(1)
	e.regMu.Lock()
	e.cores[minPts] = cd
	e.regMu.Unlock()
	return cd
}

// annotateLocked installs minPts's core-distance annotations on the shared
// tree if they are not already in place (buildMu held). annotated is
// cleared before the rewrite starts so an abort or panic that unwinds
// mid-annotation can never leave a stale minPts claiming half-written
// bounds — the next build under buildMu re-annotates from scratch.
func (e *Engine) annotateLocked(x *exec, minPts int, cd []float64) {
	if e.annotated == minPts {
		return
	}
	t := e.treeLocked(x)
	e.annotated = 0
	x.report.Time(mst.PhaseCoreDist, func() {
		t.AnnotateCoreDists(cd)
	})
	e.annotated = minPts
}

// mstStage is a memoized MST stage output: its edges and the report of the
// flight that published them (zero when seeded from a snapshot).
type mstStage struct {
	edges  []mst.Edge
	report mst.Stats
}

func (e *Engine) lookupMST(key StageKey) (mstStage, bool) {
	e.regMu.RLock()
	st, ok := e.msts[key]
	e.regMu.RUnlock()
	return st, ok
}

// storeMST publishes an MST stage with a copy of the flight's report.
func (e *Engine) storeMST(x *exec, key StageKey, edges []mst.Edge) []mst.Edge {
	e.stages.mst.builds.Add(1)
	e.regMu.Lock()
	e.msts[key] = mstStage{edges: edges, report: x.report}
	e.regMu.Unlock()
	return edges
}

// EMST returns the memoized MST of the point set under the engine's kernel
// with the selected algorithm, and the report of the flight that built it.
// Delaunay preconditions (2D, L2) are the caller's responsibility. An input
// of fewer than two points yields nil without building anything (the
// one-shot API contract). ctx bounds a cold build (see coalesce).
func (e *Engine) EMST(ctx context.Context, algo EMSTAlgo) ([]mst.Edge, mst.Stats, error) {
	if e.LiveN() <= 1 {
		return nil, mst.Stats{}, nil
	}
	key := StageKey{Kind: KindEMST, Algo: uint8(algo)}
	var st mstStage
	err := e.stages.mst.fetch(ctx, e, key, func() (ok bool) {
		e.regMu.RLock()
		st, ok = e.msts[key]
		e.regMu.RUnlock()
		// A delete can leave too few points to span after the check above;
		// the build then publishes nothing, and nil is the answer.
		return ok || e.LiveN() <= 1
	}, func(x *exec) { e.emstLocked(x, key) })
	return st.edges, st.report, err
}

func (e *Engine) emstLocked(x *exec, key StageKey) []mst.Edge {
	if e.liveNLocked() <= 1 {
		return nil // nothing to span; matches the one-shot early return
	}
	if st, ok := e.lookupMST(key); ok {
		return st.edges
	}
	if EMSTAlgo(key.Algo) == EMSTDelaunay2D {
		x.abort.Check() // the Delaunay path has no interior checkpoints
		e.compactLocked(x)
		return e.storeMST(x, key, delaunay.EMST(e.Pts, &x.report))
	}
	t := e.canonLocked(x)
	ws := wsPool.Get().(*mst.Workspace)
	defer wsPool.Put(ws)
	cfg := mst.Config{Tree: t, Metric: edgeMetricFor(t), Sep: separationFor(e.Kern), Stats: &x.report, WS: ws, Abort: &x.abort}
	var edges []mst.Edge
	switch EMSTAlgo(key.Algo) {
	case EMSTMemoGFK:
		edges = mst.MemoGFK(cfg)
	case EMSTGFK:
		edges = mst.GFK(cfg)
	case EMSTNaive:
		edges = mst.Naive(cfg)
	case EMSTWSPDBoruvka:
		edges = mst.WSPDBoruvka(cfg)
	case EMSTBoruvka:
		edges = mst.Boruvka(cfg)
	default:
		panic("engine: unknown EMST algorithm")
	}
	return e.storeMST(x, key, edges)
}

// hdbscanMSTLocked builds (or looks up) the MST of the mutual-reachability
// graph for key.MinPts with key's algorithm, together with the core
// distances it runs over. minPts has been validated by the caller (>= 1,
// <= N for non-empty inputs).
func (e *Engine) hdbscanMSTLocked(x *exec, key StageKey) ([]mst.Edge, []float64) {
	cd := e.coreDistLocked(x, key.MinPts)
	if st, ok := e.lookupMST(key); ok {
		return st.edges, cd
	}
	t := e.canonLocked(x)
	e.annotateLocked(x, key.MinPts, cd)
	ws := wsPool.Get().(*mst.Workspace)
	defer wsPool.Put(ws)
	edges := hdbscan.MSTOnAnnotatedTreeCancel(t, hdbscan.Algorithm(key.Algo), e.Kern, ws, &x.report, &x.abort)
	return e.storeMST(x, key, edges), cd
}

// Hierarchy returns the memoized hierarchy stage — MST, ordered dendrogram
// (start vertex 0), and cut structure — for the given MST stage. For
// KindEMST the algorithm is an EMSTAlgo and CoreDist is nil (single-linkage
// semantics); for KindHDBSCAN it is an hdbscan.Algorithm.
func (e *Engine) Hierarchy(ctx context.Context, kind Kind, algo uint8, minPts int) (*HierStage, error) {
	key := StageKey{Kind: kind, Algo: algo, MinPts: minPts}
	if kind == KindEMST {
		key.MinPts = 0
	}
	var st *HierStage
	err := e.stages.hier.fetch(ctx, e, key, func() bool {
		e.regMu.RLock()
		st = e.hiers[key]
		e.regMu.RUnlock()
		return st != nil
	}, func(x *exec) { e.hierarchyLocked(x, key, minPts) })
	return st, err
}

// hierarchyLocked is the build-mutex-held hierarchy stage body; minPts is
// the stage's density parameter (1 for single linkage, whose key has 0).
func (e *Engine) hierarchyLocked(x *exec, key StageKey, minPts int) *HierStage {
	e.regMu.RLock()
	st := e.hiers[key]
	e.regMu.RUnlock()
	if st != nil {
		return st
	}
	var edges []mst.Edge
	var cd []float64
	if key.Kind == KindEMST {
		edges = e.emstLocked(x, key)
	} else {
		edges, cd = e.hdbscanMSTLocked(x, key)
	}
	x.abort.Check() // last checkpoint before the (uncancellable) dendrogram build
	st = &HierStage{N: e.liveNLocked(), MST: edges, CoreDist: cd, MinPts: minPts, eng: e}
	x.report.Time(mst.PhaseDendrogram, func() {
		st.Dendro = dendrogram.BuildParallel(st.N, edges, 0)
	})
	st.Report = x.report
	e.stages.hier.builds.Add(1)
	e.regMu.Lock()
	e.hiers[key] = st
	e.regMu.Unlock()
	return st
}

// edgeMetricFor adapts the tree's kernel to the MST edge-weight interface
// over the kd-ordered points, preserving the monomorphized Euclidean fast
// path.
func edgeMetricFor(t *kdtree.Tree) kdtree.Metric {
	if t.IsL2() {
		return kdtree.NewEuclidean(t)
	}
	return kdtree.NewPointDist(t)
}

// separationFor selects the s=2 geometric well-separation for the kernel.
func separationFor(kern metric.Metric) wspd.Separation {
	if metric.IsL2(kern) {
		return wspd.Geometric{S: 2}
	}
	return wspd.MetricGeometric{M: kern, S: 2}
}
