package registry

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPutAcquireEvict(t *testing.T) {
	r := New[string](0)
	if err := r.Put("a", "alpha", 10); err != nil {
		t.Fatal(err)
	}
	h, ok := r.Acquire("a")
	if !ok || h.Value() != "alpha" || h.Bytes() != 10 {
		t.Fatalf("Acquire(a) = %+v, %v", h, ok)
	}
	h.Release()
	if _, ok := r.Acquire("missing"); ok {
		t.Fatal("acquired a key that was never stored")
	}
	if !r.Evict("a") {
		t.Fatal("Evict(a) reported absent")
	}
	if r.Evict("a") {
		t.Fatal("second Evict(a) reported present")
	}
	if _, ok := r.Acquire("a"); ok {
		t.Fatal("acquired an evicted key")
	}
	if s := r.Stats(); s.Entries != 0 || s.Bytes != 0 || s.Evictions != 1 {
		t.Fatalf("stats after evict: %+v", s)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	r := New[int](30)
	for i, k := range []string{"a", "b", "c"} {
		if err := r.Put(k, i, 10); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" becomes the least recently used.
	h, _ := r.Acquire("a")
	h.Release()
	if err := r.Put("d", 3, 10); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Acquire("b"); ok {
		t.Fatal("LRU victim b still acquirable")
	}
	for _, k := range []string{"a", "c", "d"} {
		h, ok := r.Acquire(k)
		if !ok {
			t.Fatalf("%s was evicted, want b only", k)
		}
		h.Release()
	}
	if s := r.Stats(); s.Entries != 3 || s.Bytes != 30 || s.Evictions != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestAdmissionErrors(t *testing.T) {
	r := New[int](25)
	if err := r.Put("huge", 0, 26); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized Put: %v, want ErrTooLarge", err)
	}
	if err := r.Put("a", 1, 20); err != nil {
		t.Fatal(err)
	}
	// Pin "a": the budget cannot make room, so admission must fail without
	// disturbing the pinned entry.
	h, _ := r.Acquire("a")
	if err := r.Put("b", 2, 10); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("Put over pinned budget: %v, want ErrOverBudget", err)
	}
	if hv, ok := r.Acquire("a"); !ok {
		t.Fatal("pinned entry lost by failed admission")
	} else {
		hv.Release()
	}
	h.Release()
	// Unpinned, the same Put succeeds by evicting "a".
	if err := r.Put("b", 2, 10); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Acquire("a"); ok {
		t.Fatal("a should have been evicted to admit b")
	}
}

func TestReplaceSameKey(t *testing.T) {
	released := make(map[string]int)
	r := New[int](0)
	r.OnRelease = func(key string, val int, _ ReleaseCause) { released[fmt.Sprintf("%s=%d", key, val)]++ }
	if err := r.Put("k", 1, 10); err != nil {
		t.Fatal(err)
	}
	if err := r.Put("k", 2, 20); err != nil {
		t.Fatal(err)
	}
	h, ok := r.Acquire("k")
	if !ok || h.Value() != 2 {
		t.Fatalf("Acquire after replace = %v, %v", h.Value(), ok)
	}
	h.Release()
	if released["k=1"] != 1 || released["k=2"] != 0 {
		t.Fatalf("OnRelease calls: %v", released)
	}
	if s := r.Stats(); s.Entries != 1 || s.Bytes != 20 || s.Evictions != 1 {
		t.Fatalf("stats after replace: %+v", s)
	}
}

// TestAddKeepsResidentEntry: Add admits an absent key like Put, and for a
// resident key it changes nothing — no replacement, no eviction, no
// release — and fails with ErrExists.
func TestAddKeepsResidentEntry(t *testing.T) {
	released := 0
	r := New[int](30)
	r.OnRelease = func(string, int, ReleaseCause) { released++ }
	if err := r.Add("k", 1, 10); err != nil {
		t.Fatal(err)
	}
	if err := r.Put("other", 2, 10); err != nil {
		t.Fatal(err)
	}
	// Would need to evict "other" to fit, were it admitted.
	if err := r.Add("k", 3, 20); !errors.Is(err, ErrExists) {
		t.Fatalf("Add over a resident key: %v, want ErrExists", err)
	}
	h, ok := r.Acquire("k")
	if !ok || h.Value() != 1 || h.Bytes() != 10 {
		t.Fatalf("resident entry changed by a refused Add: %v, %v", h.Value(), ok)
	}
	h.Release()
	if s := r.Stats(); s.Entries != 2 || s.Bytes != 20 || s.Evictions != 0 || released != 0 {
		t.Fatalf("refused Add mutated the registry: %+v, %d releases", s, released)
	}
	// Once the key is gone, Add admits again.
	r.Evict("k")
	if err := r.Add("k", 4, 10); err != nil {
		t.Fatal(err)
	}
	if h, ok := r.Acquire("k"); !ok || h.Value() != 4 {
		t.Fatalf("Add after Evict: %v, %v", h, ok)
	} else {
		h.Release()
	}
}

// TestFailedReplacementKeepsOldEntry: when a same-key Put cannot be
// admitted, the existing entry must remain resident and serving — a 507'd
// re-upload must never destroy the dataset it failed to replace.
func TestFailedReplacementKeepsOldEntry(t *testing.T) {
	r := New[int](30)
	if err := r.Put("pin", 1, 20); err != nil {
		t.Fatal(err)
	}
	hp, _ := r.Acquire("pin")
	if err := r.Put("demo", 2, 10); err != nil {
		t.Fatal(err)
	}
	// Needs 25; even reclaiming old demo (10) leaves 20(pinned)+25 > 30.
	if err := r.Put("demo", 3, 25); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("over-budget replacement: %v, want ErrOverBudget", err)
	}
	h, ok := r.Acquire("demo")
	if !ok || h.Value() != 2 {
		t.Fatalf("old entry destroyed by failed replacement: %v, %v", h, ok)
	}
	h.Release()
	hp.Release()
	if s := r.Stats(); s.Entries != 2 || s.Bytes != 30 || s.Evictions != 0 {
		t.Fatalf("failed replacement mutated the registry: %+v", s)
	}
}

// TestRefusedPutEvictsNothing: a Put refused with ErrOverBudget must not
// have evicted the unpinned entries it scanned on the way — in the daemon
// that would be a 507'd upload that still dropped (and spilled) another
// dataset.
func TestRefusedPutEvictsNothing(t *testing.T) {
	var releases []string
	r := New[int](30)
	r.OnRelease = func(key string, _ int, cause ReleaseCause) {
		releases = append(releases, key+":"+cause.String())
	}
	for _, k := range []string{"a", "b"} {
		if err := r.Put(k, 0, 10); err != nil {
			t.Fatal(err)
		}
	}
	hb, _ := r.Acquire("b")
	defer hb.Release()
	// Evicting a frees 10 of the 15 bytes c needs; b is pinned.
	if err := r.Put("c", 0, 25); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("Put(c) = %v, want ErrOverBudget", err)
	}
	if h, ok := r.Peek("a"); !ok {
		t.Fatal("refused Put evicted a")
	} else {
		h.Release()
	}
	if len(releases) != 0 {
		t.Fatalf("OnRelease fired for a refused Put: %v", releases)
	}
	if s := r.Stats(); s != (Stats{Entries: 2, Bytes: 20, MaxBytes: 30, Evictions: 0}) {
		t.Fatalf("refused Put changed the registry: %+v", s)
	}
}

// TestReplacementReclaimsItsOwnBytes: replacing an entry counts the old
// entry's own unpinned bytes as reclaimable during admission, so an
// upgrade that fits only after removing its predecessor succeeds.
func TestReplacementReclaimsItsOwnBytes(t *testing.T) {
	r := New[int](12)
	if err := r.Put("only", 1, 10); err != nil {
		t.Fatal(err)
	}
	// 10 resident + 11 new > 12, but reclaiming the old 10 admits it.
	if err := r.Put("only", 2, 11); err != nil {
		t.Fatalf("self-reclaiming replacement failed: %v", err)
	}
	h, ok := r.Acquire("only")
	if !ok || h.Value() != 2 {
		t.Fatalf("Acquire after replacement = %v, %v", h, ok)
	}
	h.Release()
	if s := r.Stats(); s.Entries != 1 || s.Bytes != 11 || s.Evictions != 1 {
		t.Fatalf("stats after self-reclaim: %+v", s)
	}
}

// TestEvictionDefersReleaseUntilQueriesDrain is the core safety contract:
// evicting an entry that an in-flight query holds must keep the value
// usable and its bytes charged until the last handle is released.
func TestEvictionDefersReleaseUntilQueriesDrain(t *testing.T) {
	var releases atomic.Int64
	r := New[string](0)
	r.OnRelease = func(string, string, ReleaseCause) { releases.Add(1) }
	if err := r.Put("x", "payload", 40); err != nil {
		t.Fatal(err)
	}
	h1, _ := r.Acquire("x")
	h2, _ := r.Acquire("x")
	if !r.Evict("x") {
		t.Fatal("Evict reported absent")
	}
	if _, ok := r.Acquire("x"); ok {
		t.Fatal("evicted entry still acquirable")
	}
	if releases.Load() != 0 {
		t.Fatal("OnRelease fired while queries still hold the value")
	}
	if s := r.Stats(); s.Bytes != 40 {
		t.Fatalf("evicted-but-pinned bytes uncharged: %+v", s)
	}
	if h1.Value() != "payload" {
		t.Fatal("pinned value corrupted after eviction")
	}
	h1.Release()
	h1.Release() // idempotent
	if releases.Load() != 0 {
		t.Fatal("OnRelease fired before the last handle released")
	}
	h2.Release()
	if releases.Load() != 1 {
		t.Fatalf("OnRelease fired %d times, want 1", releases.Load())
	}
	if s := r.Stats(); s.Bytes != 0 {
		t.Fatalf("bytes not credited after drain: %+v", s)
	}
}

// blob is the payload for the race test: a checksummed buffer whose
// OnRelease flips released, so any query observing released==true while
// holding a handle has caught a mid-query free.
type blob struct {
	data     []byte
	sum      byte
	released atomic.Bool
}

func newBlob(rng *rand.Rand) *blob {
	b := &blob{data: make([]byte, 256)}
	rng.Read(b.data)
	for _, v := range b.data {
		b.sum += v
	}
	return b
}

// TestEvictUnderLoadRace hammers one registry from concurrent readers,
// writers (Puts forcing LRU eviction), and explicit evictors under -race:
// the regression test for eviction freeing an entry mid-query. Readers
// verify their pinned blob is never released and never corrupted.
func TestEvictUnderLoadRace(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; the dedicated CI race step runs it without -short")
	}
	const (
		keys     = 8
		perEntry = 100
		budget   = perEntry * 4 // at most half the keys resident
		iters    = 400
		readers  = 4
		writers  = 2
		evictors = 1
	)
	var releases atomic.Int64
	r := New[*blob](budget)
	r.OnRelease = func(_ string, b *blob, _ ReleaseCause) {
		if b.released.Swap(true) {
			t.Error("OnRelease fired twice for one entry")
		}
		releases.Add(1)
	}
	keyOf := func(i int) string { return fmt.Sprintf("ds-%d", i%keys) }
	seed := func(rng *rand.Rand, i int) {
		// ErrOverBudget is expected under pin pressure; drop the Put.
		if err := r.Put(keyOf(i), newBlob(rng), perEntry); err != nil && !errors.Is(err, ErrOverBudget) {
			t.Error(err)
		}
	}
	{
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < keys; i++ {
			seed(rng, i)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < iters; i++ {
				seed(rng, rng.Intn(keys))
			}
		}(w)
	}
	for ev := 0; ev < evictors; ev++ {
		wg.Add(1)
		go func(ev int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + ev)))
			for i := 0; i < iters; i++ {
				r.Evict(keyOf(rng.Intn(keys)))
			}
		}(ev)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + rd)))
			for i := 0; i < iters; i++ {
				h, ok := r.Acquire(keyOf(rng.Intn(keys)))
				if !ok {
					continue
				}
				b := h.Value()
				if b.released.Load() {
					t.Error("acquired blob was released mid-query")
				}
				var sum byte
				for _, v := range b.data {
					sum += v
				}
				if sum != b.sum {
					t.Error("pinned blob corrupted")
				}
				if b.released.Load() {
					t.Error("blob released while still pinned")
				}
				h.Release()
			}
		}(rd)
	}
	wg.Wait()
	// All handles are released: the byte account must equal the resident
	// entries exactly, and every removed entry must have been released
	// exactly once.
	s := r.Stats()
	if want := int64(s.Entries) * perEntry; s.Bytes != want {
		t.Fatalf("bytes=%d, want %d (%d resident entries)", s.Bytes, want, s.Entries)
	}
	if s.Bytes > budget {
		t.Fatalf("resident bytes %d exceed budget %d after drain", s.Bytes, budget)
	}
	if releases.Load() != s.Evictions {
		t.Fatalf("releases=%d, evictions=%d: some removed entry never released (or released twice)",
			releases.Load(), s.Evictions)
	}
}

func TestKeysAndLen(t *testing.T) {
	r := New[int](0)
	for _, k := range []string{"zeta", "alpha", "mid"} {
		if err := r.Put(k, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	got := r.Keys()
	want := []string{"alpha", "mid", "zeta"}
	if len(got) != len(want) {
		t.Fatalf("Keys() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys() = %v, want %v", got, want)
		}
	}
	if n := r.Stats().Entries; n != 3 {
		t.Fatalf("Stats().Entries = %d", n)
	}
}

// TestReleaseCauses pins down which cause reaches OnRelease on every
// removal path, including releases deferred behind outstanding handles.
func TestReleaseCauses(t *testing.T) {
	causes := make(map[string]ReleaseCause)
	r := New[int](25)
	r.OnRelease = func(key string, _ int, cause ReleaseCause) { causes[key] = cause }

	// LRU pressure: admitting "c" pushes out "a".
	for _, k := range []string{"a", "b"} {
		if err := r.Put(k, 0, 10); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Put("c", 0, 10); err != nil {
		t.Fatal(err)
	}
	if causes["a"] != CausePressure {
		t.Fatalf("pressure eviction reported %v", causes["a"])
	}
	// Same-key replacement.
	if err := r.Put("b", 1, 10); err != nil {
		t.Fatal(err)
	}
	if causes["b"] != CauseReplaced {
		t.Fatalf("replacement reported %v", causes["b"])
	}
	// Explicit evict, deferred behind a pinned handle: the cause recorded
	// at eviction time must survive until the drain.
	h, _ := r.Acquire("c")
	r.Evict("c")
	if _, ok := causes["c"]; ok {
		t.Fatal("OnRelease fired while pinned")
	}
	h.Release()
	if causes["c"] != CauseEvicted {
		t.Fatalf("deferred explicit eviction reported %v", causes["c"])
	}
	// Pinned same-key replacement defers with CauseReplaced.
	h, _ = r.Acquire("b")
	if err := r.Put("b", 2, 10); err != nil {
		t.Fatal(err)
	}
	delete(causes, "b")
	h.Release()
	if causes["b"] != CauseReplaced {
		t.Fatalf("deferred replacement reported %v", causes["b"])
	}
	if CausePressure.String() != "pressure" || CauseReplaced.String() != "replaced" ||
		CauseEvicted.String() != "evicted" || ReleaseCause(9).String() != "unknown" {
		t.Fatal("ReleaseCause.String mismatch")
	}
}

// TestStatsCoherentUnderChurn scrapes Stats while writers churn equal-size
// entries. Every entry charges exactly perEntry bytes no later than it
// becomes countable, so a coherent snapshot always satisfies
// Bytes >= Entries*perEntry; the pre-fix torn read (Entries outside the
// critical section) violates it readily under this load.
func TestStatsCoherentUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; the dedicated CI race step runs it without -short")
	}
	const (
		perEntry = 64
		keys     = 16
		iters    = 300
		writers  = 4
		scrapers = 2
	)
	r := New[int](0)
	var writersWG, scrapersWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < iters; i++ {
				k := fmt.Sprintf("k-%d", (w*iters+i)%keys)
				if err := r.Put(k, i, perEntry); err != nil {
					t.Error(err)
				}
				if i%3 == 0 {
					r.Evict(k)
				}
			}
		}(w)
	}
	for sc := 0; sc < scrapers; sc++ {
		scrapersWG.Add(1)
		go func() {
			defer scrapersWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := r.Stats()
				if s.Bytes < int64(s.Entries)*perEntry {
					t.Errorf("torn stats: %d entries but only %d bytes", s.Entries, s.Bytes)
					return
				}
			}
		}()
	}
	writersWG.Wait()
	close(stop)
	scrapersWG.Wait()
}
