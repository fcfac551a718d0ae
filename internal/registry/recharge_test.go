package registry

import "testing"

func TestRecharge(t *testing.T) {
	r := New[string](100)
	if err := r.Put("a", "alpha", 10); err != nil {
		t.Fatal(err)
	}
	if r.Recharge("missing", 50) {
		t.Fatal("Recharge reported an absent key resident")
	}

	// Growing the charge is visible in both the handle and the occupancy.
	if !r.Recharge("a", 30) {
		t.Fatal("Recharge(a) reported absent")
	}
	h, _ := r.Acquire("a")
	if h.Bytes() != 30 {
		t.Fatalf("Bytes after recharge = %d, want 30", h.Bytes())
	}
	h.Release()
	if s := r.Stats(); s.Bytes != 30 {
		t.Fatalf("registry bytes after recharge = %d, want 30", s.Bytes)
	}

	// Recharging is idempotent on the total, not additive.
	r.Recharge("a", 30)
	if s := r.Stats(); s.Bytes != 30 {
		t.Fatalf("repeat recharge changed bytes to %d", s.Bytes)
	}

	// Shrinking below the admitted size clamps to it.
	r.Recharge("a", 3)
	if s := r.Stats(); s.Bytes != 10 {
		t.Fatalf("bytes after under-clamped recharge = %d, want 10", s.Bytes)
	}

	// Eviction credits the admitted bytes plus the extra charge.
	r.Recharge("a", 40)
	r.Evict("a")
	if s := r.Stats(); s.Bytes != 0 {
		t.Fatalf("bytes after evicting recharged entry = %d, want 0", s.Bytes)
	}
	if r.Recharge("a", 40) {
		t.Fatal("Recharge succeeded on an evicted key")
	}
}

func TestRechargePressuresNextPut(t *testing.T) {
	// A recharge never evicts on its own, but the grown occupancy counts
	// against the budget at the next admission: putting 40 more bytes into
	// a 100-byte registry holding 10+60 must evict the recharged entry.
	r := New[int](100)
	if err := r.Put("big", 1, 10); err != nil {
		t.Fatal(err)
	}
	if err := r.Put("small", 2, 10); err != nil {
		t.Fatal(err)
	}
	r.Recharge("big", 70)
	if s := r.Stats(); s.Bytes != 80 {
		t.Fatalf("bytes = %d, want 80", s.Bytes)
	}
	if err := r.Put("next", 3, 40); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Acquire("big"); ok {
		t.Fatal("recharged LRU entry survived an over-budget Put")
	}
	if s := r.Stats(); s.Bytes != 50 {
		t.Fatalf("bytes after eviction = %d, want 50 (10 small + 40 next)", s.Bytes)
	}
}
