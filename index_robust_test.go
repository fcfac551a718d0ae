package parclust

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"parclust/internal/engine"
)

// TestIndexWithContextCancelled pins the public cancellation contract: a
// handle carrying an already-cancelled context refuses to start cold stage
// builds (returning the ctx error with zero builds recorded), while the
// parent Index and warm reads through the cancelled handle keep working.
func TestIndexWithContextCancelled(t *testing.T) {
	idx, err := NewIndex(GenerateVarden(1000, 2, 31), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dead := idx.WithContext(ctx)

	if _, err := dead.HDBSCAN(5); !errors.Is(err, context.Canceled) {
		t.Fatalf("cold HDBSCAN on cancelled handle: %v, want context.Canceled", err)
	}
	if _, err := dead.EMST(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cold EMST on cancelled handle: %v, want context.Canceled", err)
	}
	if s := idx.Stats(); s.TreeBuilds != 0 {
		t.Fatalf("TreeBuilds = %d, want 0 (cancelled handle must not build)", s.TreeBuilds)
	}

	// The parent handle is unaffected and builds normally.
	h, err := idx.HDBSCAN(5)
	if err != nil || h == nil {
		t.Fatalf("parent HDBSCAN after cancelled handle: (%v, %v)", h, err)
	}
	// Memoized reads through the cancelled handle still succeed: the
	// context bounds builds, not cache hits.
	h2, err := dead.HDBSCAN(5)
	if err != nil || h2 == nil {
		t.Fatalf("warm HDBSCAN on cancelled handle: (%v, %v)", h2, err)
	}
	labels, labels2 := h.ClustersAt(0.5).Labels, h2.ClustersAt(0.5).Labels
	for i := range labels {
		if labels[i] != labels2[i] {
			t.Fatalf("label %d diverges between parent and cancelled warm handle", i)
		}
	}
}

// TestIndexBuildGate pins the public admission contract: a closed gate
// sheds cold builds with ErrOverloaded, warm reads bypass it, and an open
// gate's release runs once per admitted flight.
func TestIndexBuildGate(t *testing.T) {
	idx, err := NewIndex(GenerateVarden(500, 2, 32), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.EMST(); err != nil { // warm the tree + one MST
		t.Fatal(err)
	}

	idx.SetBuildGate(func() (func(), bool) { return nil, false })
	if _, err := idx.HDBSCAN(5); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("cold HDBSCAN under closed gate: %v, want ErrOverloaded", err)
	}
	if _, err := idx.EMST(); err != nil {
		t.Fatalf("warm EMST under closed gate: %v, want memoized hit", err)
	}

	var admitted, released int
	idx.SetBuildGate(func() (func(), bool) {
		admitted++
		return func() { released++ }, true
	})
	if _, err := idx.HDBSCAN(5); err != nil {
		t.Fatalf("cold HDBSCAN under open gate: %v", err)
	}
	if admitted == 0 || admitted != released {
		t.Fatalf("gate admitted=%d released=%d, want equal and nonzero", admitted, released)
	}
}

// TestOPTICSMutationBetweenStages pins that OPTICS pairs a tree with the
// core distances computed over that same point set. A hook runs an insert
// and a delete just before the core-distance build, so the live count is
// unchanged but the point set is not; the answer must equal OPTICS on a
// fresh Index over either the rows before the mutation or the rows after
// it, never a mix of the two.
func TestOPTICSMutationBetweenStages(t *testing.T) {
	pts := GenerateVarden(400, 2, 41)
	idx, err := NewIndex(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	extra := Points{Data: []float64{100, 100}, N: 1, Dim: 2}
	var once sync.Once
	engine.TestBuildHook = func(stage string) {
		if stage != "core" {
			return
		}
		once.Do(func() {
			if _, err := idx.Insert(extra); err != nil {
				t.Error(err)
			}
			if err := idx.Delete([]int64{0}); err != nil {
				t.Error(err)
			}
		})
	}
	t.Cleanup(func() { engine.TestBuildHook = nil })
	const minPts, eps = 8, 25.0
	got, err := idx.OPTICS(minPts, eps)
	if err != nil {
		t.Fatal(err)
	}
	engine.TestBuildHook = nil

	// Dense ids follow ascending external ids: base rows 1..N-1, then the
	// inserted row.
	after := Points{Data: append(append([]float64(nil), pts.Data[pts.Dim:]...), extra.Data...), N: pts.N, Dim: pts.Dim}
	for _, rows := range []Points{pts, after} {
		fresh, err := NewIndex(rows, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.OPTICS(minPts, eps)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(got, want) {
			return
		}
	}
	t.Fatal("OPTICS matches neither the rows before the mutation nor the rows after it")
}
