package parallel

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withGOMAXPROCS runs f under the given GOMAXPROCS and restores the old
// value afterwards.
func withGOMAXPROCS(p int, f func()) {
	old := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(old)
	f()
}

// schedTreeSum is treeSum (bench_test.go) via explicit Group use.
func schedTreeSum(lo, hi, cutoff int) int64 {
	if hi-lo <= cutoff {
		var s int64
		for i := lo; i < hi; i++ {
			s += int64(i)
		}
		return s
	}
	mid := (lo + hi) / 2
	var a, b int64
	var g Group
	g.Spawn(func() { b = schedTreeSum(mid, hi, cutoff) })
	g.Run(func() { a = schedTreeSum(lo, mid, cutoff) })
	g.Sync()
	return a + b
}

func TestGroupNestedSpawnSync(t *testing.T) {
	const n = 1 << 16
	want := int64(n) * (n - 1) / 2
	for _, procs := range []int{1, 2, 8} {
		withGOMAXPROCS(procs, func() {
			for _, cutoff := range []int{1, 7, 64, n} {
				if got := schedTreeSum(0, n, cutoff); got != want {
					t.Fatalf("GOMAXPROCS=%d cutoff=%d: sum = %d, want %d", procs, cutoff, got, want)
				}
			}
		})
	}
}

func TestGroupReuse(t *testing.T) {
	withGOMAXPROCS(4, func() {
		var g Group
		var count atomic.Int64
		for round := 0; round < 100; round++ {
			for i := 0; i < 5; i++ {
				g.Spawn(func() { count.Add(1) })
			}
			g.Sync()
			if got := count.Load(); got != int64((round+1)*5) {
				t.Fatalf("round %d: count = %d, want %d", round, got, (round+1)*5)
			}
		}
	})
}

func TestGroupPanicPropagation(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withGOMAXPROCS(procs, func() {
			// A panic in a spawned task must surface at Sync on the owner's
			// goroutine, with the original panic value, after all sibling
			// tasks finished.
			var siblings atomic.Int64
			got := func() (r any) {
				defer func() { r = recover() }()
				var g Group
				for i := 0; i < 8; i++ {
					g.Spawn(func() { siblings.Add(1) })
				}
				g.Spawn(func() { panic("boom") })
				g.Sync()
				return nil
			}()
			if got != "boom" {
				t.Fatalf("GOMAXPROCS=%d: recovered %v, want \"boom\"", procs, got)
			}
			if siblings.Load() != 8 {
				t.Fatalf("GOMAXPROCS=%d: %d siblings ran before rethrow, want 8", procs, siblings.Load())
			}
		})
	}
}

func TestDoPanicPropagation(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withGOMAXPROCS(procs, func() {
			for name, fork := range map[string]func(){
				"spawned": func() { Do(func() {}, func() { panic("spawned boom") }) },
				"inline":  func() { Do(func() { panic("inline boom") }, func() {}) },
			} {
				got := func() (r any) {
					defer func() { r = recover() }()
					fork()
					return nil
				}()
				s, ok := got.(string)
				if !ok || s == "" {
					t.Fatalf("GOMAXPROCS=%d %s: recovered %v, want a boom", procs, name, got)
				}
			}
		})
	}
}

func TestNestedPanicUnwindsThroughLevels(t *testing.T) {
	withGOMAXPROCS(4, func() {
		var depth func(d int)
		depth = func(d int) {
			if d == 0 {
				panic("bottom")
			}
			Do(func() { depth(d - 1) }, func() {})
		}
		got := func() (r any) {
			defer func() { r = recover() }()
			depth(6)
			return nil
		}()
		if got != "bottom" {
			t.Fatalf("recovered %v, want \"bottom\"", got)
		}
	})
}

// TestDeterminismAcrossWorkerCounts checks the package's central contract:
// every primitive returns identical results for any GOMAXPROCS.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	type results struct {
		sorted    []float64
		nth       []int
		mapped    []int
		minIdx    int
		minVal    float64
		rank      []float64
		treeDepth []int32
	}
	collect := func() results {
		rng := rand.New(rand.NewSource(99))
		var r results
		r.sorted = make([]float64, 1<<14)
		for i := range r.sorted {
			r.sorted[i] = rng.Float64()
		}
		Sort(r.sorted, func(x, y float64) bool { return x < y })

		r.nth = make([]int, 10000)
		for i := range r.nth {
			r.nth[i] = i * 7919 % 10007
		}
		NthElement(r.nth, len(r.nth)/3, func(x, y int) bool { return x < y })

		r.mapped = make([]int, 50000)
		For(len(r.mapped), 0, func(i int) { r.mapped[i] = i * 7 % 101 })

		vals := make([]float64, 20000)
		for i := range vals {
			vals[i] = float64((i*2654435761)%977) / 977
		}
		r.minIdx, r.minVal = ReduceMin(len(vals), 0, func(i int) float64 { return vals[i] })

		next := make([]int32, 1<<15)
		value := make([]float64, len(next))
		for i := 0; i < len(next)-1; i++ {
			next[i] = int32(i + 1)
			value[i] = float64(i % 5)
		}
		next[len(next)-1] = -1
		r.rank = ListRank(next, value)

		edges := make([]TreeEdge, 0, 999)
		for i := 1; i < 1000; i++ {
			edges = append(edges, TreeEdge{U: int32(rng.Intn(i)), V: int32(i)})
		}
		_, r.treeDepth = RootTree(1000, edges, 0)
		return r
	}

	var base results
	withGOMAXPROCS(1, func() { base = collect() })
	for _, procs := range []int{2, 8} {
		withGOMAXPROCS(procs, func() {
			got := collect()
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("GOMAXPROCS=%d: results differ from GOMAXPROCS=1", procs)
			}
		})
	}
}

// TestSchedulerStressNoDeadlock hammers the scheduler from many root
// goroutines at once with nested, irregular fork-join trees. Run under
// -race in CI; a hang here fails via the timeout watchdog.
func TestSchedulerStressNoDeadlock(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	withGOMAXPROCS(8, func() {
		done := make(chan struct{})
		go func() {
			defer close(done)
			var wg sync.WaitGroup
			var total atomic.Int64
			for root := 0; root < 16; root++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					for iter := 0; iter < 50; iter++ {
						// Branch choice is a pure function of the path so the
						// tree shape is irregular but parallel branches share
						// no mutable state.
						var walk func(d int, path uint64)
						walk = func(d int, path uint64) {
							total.Add(1)
							if d == 0 {
								return
							}
							switch (path ^ seed ^ uint64(iter)*0x9e3779b9) % 3 {
							case 0:
								Do(func() { walk(d-1, path*31+1) }, func() { walk(d-1, path*31+2) })
							case 1:
								var g Group
								g.Spawn(func() { walk(d-1, path*31+2) })
								g.Spawn(func() { walk(d-1, path*31+3) })
								g.Run(func() { walk(d-1, path*31+1) })
								g.Sync()
							default:
								ForRange(64, 16, func(lo, hi int) { walk(d-1, path*31+uint64(lo)) })
							}
						}
						walk(3, seed)
					}
				}(uint64(root))
			}
			wg.Wait()
			if total.Load() == 0 {
				t.Error("stress ran no work")
			}
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Minute):
			t.Fatal("scheduler stress test deadlocked (2m timeout)")
		}
	})
}

// TestForRangeFromManyGoroutines checks concurrent root-level entry into
// the scheduler from plain (non-worker) goroutines.
func TestForRangeFromManyGoroutines(t *testing.T) {
	withGOMAXPROCS(4, func() {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := make([]int64, 4096)
				For(len(out), 32, func(i int) { out[i] = int64(i) })
				for i, v := range out {
					if v != int64(i) {
						t.Errorf("out[%d] = %d", i, v)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}

// TestGOMAXPROCSGrowth verifies the pool adapts when GOMAXPROCS rises
// mid-process (go test -cpu 1,4 raises and lowers it between runs).
func TestGOMAXPROCSGrowth(t *testing.T) {
	var first, second int64
	withGOMAXPROCS(2, func() { first = schedTreeSum(0, 1<<14, 128) })
	withGOMAXPROCS(8, func() { second = schedTreeSum(0, 1<<14, 128) })
	if first != second {
		t.Fatalf("results differ after GOMAXPROCS growth: %d vs %d", first, second)
	}
}
