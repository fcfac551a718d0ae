// Package registry implements the multi-dataset serving store behind the
// parclustd daemon: a name -> value map with a configurable memory budget,
// least-recently-used eviction, and per-entry reference counting.
//
// The memory budget is enforced at admission: Put evicts the
// least-recently-used unpinned entries until the new value fits, and fails
// with ErrOverBudget when everything it could evict still leaves no room.
// Put picks every victim before removing any, so a failed Put changes
// nothing. Explicit eviction and replacement never release a value out
// from under a query: Acquire pins an entry with a reference count, an
// evicted entry merely becomes invisible to new Acquires, and its bytes
// stay charged against the budget (and its OnRelease callback deferred)
// until the last outstanding Handle is released. Values themselves are
// never mutated by the registry, so a pinned value remains fully usable
// after eviction.
//
// All methods are safe for concurrent use. One mutex guards the map, the
// LRU list, the byte account, the eviction count and every entry's pin
// state, so each operation is one short critical section and Stats is
// always coherent. Acquire, Peek and Release each take it once; OnRelease
// runs after it is released.
package registry

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
)

var (
	// ErrTooLarge reports a value whose size alone exceeds the budget.
	ErrTooLarge = errors.New("registry: value exceeds the memory budget")
	// ErrOverBudget reports that evicting every unpinned entry would still
	// leave no room: the rest of the budget is pinned by in-flight queries.
	ErrOverBudget = errors.New("registry: memory budget exhausted by in-use entries")
	// ErrExists reports that Add found its key already resident.
	ErrExists = errors.New("registry: key already resident")
)

// ReleaseCause tells an OnRelease callback why the entry left the
// registry, so a persistence layer can distinguish "spill this, the budget
// pushed it out" from "the user deleted it".
type ReleaseCause uint8

const (
	// CausePressure: evicted by Put's LRU scan to make room under the
	// memory budget. The natural spill-to-disk trigger.
	CausePressure ReleaseCause = iota
	// CauseReplaced: a Put stored a new value under the same key.
	CauseReplaced
	// CauseEvicted: removed by an explicit Evict call.
	CauseEvicted
)

func (c ReleaseCause) String() string {
	switch c {
	case CausePressure:
		return "pressure"
	case CauseReplaced:
		return "replaced"
	case CauseEvicted:
		return "evicted"
	}
	return "unknown"
}

// Registry is a name -> value store with an LRU memory budget.
// maxBytes <= 0 disables the budget (nothing is ever auto-evicted).
type Registry[V any] struct {
	// OnRelease, when non-nil, is called exactly once per removed entry —
	// after the entry has left the map AND its last outstanding Handle has
	// been released — from whichever goroutine performed the final step,
	// with the cause recorded at removal and no registry lock held. Set it
	// before the registry is shared.
	OnRelease func(key string, val V, cause ReleaseCause)

	maxBytes int64

	// mu guards everything below and every entry field but key, val and
	// size. The LRU list (oldest first) holds exactly the entries in m.
	mu         sync.Mutex
	m          map[string]*entry[V]
	head, tail *entry[V]
	bytes      int64
	evictions  int64
}

type entry[V any] struct {
	key  string
	val  V
	size int64 // admitted size; Recharge never charges less

	charge int64 // bytes counted against the budget: size plus Recharge growth
	refs   int
	dead   bool // removed from the map; the last Release credits charge
	cause  ReleaseCause

	prev, next *entry[V]
}

// Handle is a pinned reference to a stored value: the value it exposes
// cannot be released by eviction until Release is called. Release is
// idempotent.
type Handle[V any] struct {
	r    *Registry[V]
	e    *entry[V]
	done bool // guarded by r.mu
}

// Value returns the pinned value.
func (h *Handle[V]) Value() V { return h.e.val }

// Bytes returns the size currently charged for the value: the admitted
// size plus any post-admission Recharge adjustment.
func (h *Handle[V]) Bytes() int64 {
	h.r.mu.Lock()
	defer h.r.mu.Unlock()
	return h.e.charge
}

// Release unpins the value. If the entry was evicted while this handle was
// outstanding and this was the last reference, the entry's bytes are
// returned to the budget now and OnRelease fires.
func (h *Handle[V]) Release() {
	r, e := h.r, h.e
	r.mu.Lock()
	if h.done {
		r.mu.Unlock()
		return
	}
	h.done = true
	e.refs--
	free := e.dead && e.refs == 0
	if free {
		r.bytes -= e.charge
	}
	r.mu.Unlock()
	if free {
		r.notify(e)
	}
}

// New returns a registry with the given memory budget (<= 0: unlimited).
func New[V any](maxBytes int64) *Registry[V] {
	return &Registry[V]{maxBytes: maxBytes, m: make(map[string]*entry[V])}
}

// Put stores val under key with the given size, replacing any existing
// entry (the old value is evicted; its release is deferred if queries
// still pin it). When the budget would be exceeded, least-recently-used
// unpinned entries are evicted first, counting the replaced entry's own
// unpinned bytes as reclaimable; Put fails with ErrOverBudget when the
// pinned bytes leave no room, and with ErrTooLarge if bytes exceeds the
// whole budget. A failed Put changes nothing: no entry is evicted, and the
// existing entry under key (pinned or not) stays resident and serving.
func (r *Registry[V]) Put(key string, val V, bytes int64) error {
	return r.put(key, val, bytes, true)
}

// Add is Put for an absent key: when key is resident it changes nothing and
// fails with ErrExists, so a value that may be stale never replaces one
// stored since.
func (r *Registry[V]) Add(key string, val V, bytes int64) error {
	return r.put(key, val, bytes, false)
}

// put is Put when replace is set, and Add otherwise.
func (r *Registry[V]) put(key string, val V, bytes int64, replace bool) error {
	if bytes < 0 {
		return fmt.Errorf("registry: negative size %d for %q", bytes, key)
	}
	if r.maxBytes > 0 && bytes > r.maxBytes {
		return ErrTooLarge
	}
	r.mu.Lock()
	old := r.m[key]
	if old != nil && !replace {
		r.mu.Unlock()
		return ErrExists
	}
	var victims []*entry[V]
	if r.maxBytes > 0 {
		need := r.bytes + bytes - r.maxBytes
		if old != nil && old.refs == 0 {
			need -= old.charge
		}
		// Pinned entries are skipped: evicting them could not free their
		// bytes anyway. The old same-key entry is reclaimed below, once
		// admission is certain.
		for e := r.head; e != nil && need > 0; e = e.next {
			if e != old && e.refs == 0 {
				victims = append(victims, e)
				need -= e.charge
			}
		}
		if need > 0 {
			r.mu.Unlock()
			return ErrOverBudget
		}
	}
	for _, v := range victims {
		r.remove(v, CausePressure)
	}
	if old != nil && r.remove(old, CauseReplaced) {
		victims = append(victims, old)
	}
	e := &entry[V]{key: key, val: val, size: bytes, charge: bytes}
	r.m[key] = e
	r.pushBack(e)
	r.bytes += bytes
	r.mu.Unlock()
	for _, v := range victims {
		r.notify(v)
	}
	return nil
}

// pin looks up key and takes a reference on its entry, moving it to the
// most-recently-used end of the LRU list when bump is set.
func (r *Registry[V]) pin(key string, bump bool) (*Handle[V], bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.m[key]
	if e == nil {
		return nil, false
	}
	e.refs++
	if bump {
		r.unlink(e)
		r.pushBack(e)
	}
	return &Handle[V]{r: r, e: e}, true
}

// Acquire pins and returns the value stored under key, bumping its LRU
// recency. The second result is false when the key is absent or evicted.
// Callers must Release the handle when the query is done.
func (r *Registry[V]) Acquire(key string) (*Handle[V], bool) {
	return r.pin(key, true)
}

// Peek is Acquire without the LRU recency bump, for admin surfaces (stats,
// listings) that must not distort the eviction order. The handle pins the
// value exactly like Acquire's and must be Released.
func (r *Registry[V]) Peek(key string) (*Handle[V], bool) {
	return r.pin(key, false)
}

// Evict removes key from the registry so no future Acquire can see it, and
// reports whether it was present. Bytes (and OnRelease) are deferred until
// outstanding handles drain; queries already holding the value keep a
// fully usable reference.
func (r *Registry[V]) Evict(key string) bool {
	r.mu.Lock()
	e := r.m[key]
	free := e != nil && r.remove(e, CauseEvicted)
	r.mu.Unlock()
	if free {
		r.notify(e)
	}
	return e != nil
}

// remove takes e out of the map and the LRU list, records cause and counts
// the eviction (r.mu held). An unpinned entry's bytes are credited now and
// remove reports true: the caller must notify(e) once r.mu is released. A
// pinned entry is credited and notified by its last Release.
func (r *Registry[V]) remove(e *entry[V], cause ReleaseCause) bool {
	delete(r.m, e.key)
	r.unlink(e)
	e.dead, e.cause = true, cause
	r.evictions++
	if e.refs > 0 {
		return false
	}
	r.bytes -= e.charge
	return true
}

// notify fires OnRelease for an entry whose bytes have been credited
// (r.mu not held).
func (r *Registry[V]) notify(e *entry[V]) {
	if r.OnRelease != nil {
		r.OnRelease(e.key, e.val, e.cause)
	}
}

// Recharge updates the bytes charged for the live entry under key to
// newTotal, reporting whether the key was resident. It exists for values
// whose estimated size legitimately changes after admission — the daemon
// re-charges a dataset after a sweep has populated its cut-result caches —
// and adjusts accounting only: it never evicts, so the budget may
// transiently overshoot until the next Put applies pressure. A newTotal
// below the admitted size is clamped to it.
func (r *Registry[V]) Recharge(key string, newTotal int64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.m[key]
	if e == nil {
		return false
	}
	newTotal = max(newTotal, e.size)
	r.bytes += newTotal - e.charge
	e.charge = newTotal
	return true
}

// unlink removes e from the LRU list (r.mu held).
func (r *Registry[V]) unlink(e *entry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		r.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		r.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushBack appends e as the most recently used entry (r.mu held).
func (r *Registry[V]) pushBack(e *entry[V]) {
	e.prev = r.tail
	if r.tail != nil {
		r.tail.next = e
	} else {
		r.head = e
	}
	r.tail = e
}

// Keys returns the resident keys in sorted order.
func (r *Registry[V]) Keys() []string {
	r.mu.Lock()
	keys := slices.Collect(maps.Keys(r.m))
	r.mu.Unlock()
	slices.Sort(keys)
	return keys
}

// Stats is a snapshot of the registry occupancy.
type Stats struct {
	// Entries is the number of resident (acquirable) entries.
	Entries int
	// Bytes is the charged budget, including evicted entries whose release
	// is deferred behind in-flight queries.
	Bytes int64
	// MaxBytes is the configured budget (<= 0: unlimited).
	MaxBytes int64
	// Evictions counts entries removed for any reason: LRU pressure,
	// explicit Evict, and Put replacement.
	Evictions int64
}

// Stats returns a coherent snapshot of the registry occupancy: every field
// is read in one critical section, so a scrape during churn never reports
// a combination that never existed.
func (r *Registry[V]) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{Entries: len(r.m), Bytes: r.bytes, MaxBytes: r.maxBytes, Evictions: r.evictions}
}
