package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"parclust/internal/faultinject"
	"parclust/internal/hdbscan"
	"parclust/internal/metric"
)

// TestCancelMidTreeBuild proves a disconnected client stops its own cold
// build: the leader is held at the build hook while its context is
// cancelled, the ctx watcher releases the leader's waiter share (dropping
// the flight to zero interest and setting the abort flag), and the build
// unwinds at its first checkpoint. No stage output is published and the
// abort is counted.
func TestCancelMidTreeBuild(t *testing.T) {
	e := New(randPoints(2000, 2, 21), metric.L2{})
	ctx, cancel := context.WithCancel(context.Background())

	entered := make(chan struct{})
	release := make(chan struct{})
	TestBuildHook = func(s string) {
		if s == "tree" {
			close(entered)
			<-release
		}
	}
	t.Cleanup(func() { TestBuildHook = nil })

	errc := make(chan error, 1)
	go func() {
		_, err := e.Tree(ctx)
		errc <- err
	}()

	<-entered
	cancel()
	// Give the ctx watcher a moment to drop the leader's waiter share; the
	// 2000-node build that follows has a checkpoint per tree node, so the
	// abort lands even if the watcher fires a beat late.
	time.Sleep(20 * time.Millisecond)
	close(release)

	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("Tree returned %v, want context.Canceled", err)
	}
	c := e.Counters()
	if c.TreeBuilds != 0 {
		t.Fatalf("TreeBuilds = %d, want 0 (aborted build must not publish)", c.TreeBuilds)
	}
	if c.BuildAborts != 1 {
		t.Fatalf("BuildAborts = %d, want 1", c.BuildAborts)
	}
	// The flight is cleared: a fresh request rebuilds cleanly.
	TestBuildHook = nil
	if tr := testTree(e); tr == nil {
		t.Fatal("rebuild after abort returned nil tree")
	}
	if c := e.Counters(); c.TreeBuilds != 1 {
		t.Fatalf("TreeBuilds after rebuild = %d, want 1", c.TreeBuilds)
	}
}

// TestCancelledFollowerAbandonsFlight proves a follower abandons a parked
// wait on its own context without disturbing the leader: the build
// completes, the leader and the surviving followers get the stage, and the
// abandoning follower gets its ctx error.
func TestCancelledFollowerAbandonsFlight(t *testing.T) {
	e := New(randPoints(400, 2, 22), metric.L2{})
	entered := make(chan struct{})
	gate := make(chan struct{})
	var enterOnce, releaseOnce sync.Once
	TestBuildHook = func(s string) {
		if s == "tree" {
			enterOnce.Do(func() { close(entered) })
			<-gate
		}
	}
	t.Cleanup(func() { TestBuildHook = nil })
	release := func() { releaseOnce.Do(func() { close(gate) }) }

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		testTree(e)
	}()
	// Wait for the hook, not a counter: only this signal proves the
	// background-ctx goroutine (and not the cancellable one below) won the
	// race to lead the flight.
	<-entered

	// Park a follower, then cancel it while the leader is still held open.
	ctx, cancel := context.WithCancel(context.Background())
	follower := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := e.Tree(ctx)
		follower <- err
	}()
	waitForCoalesced(t, release, func() int64 { return e.Counters().TreeCoalesced }, 1)
	cancel()
	if err := <-follower; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled follower got %v, want context.Canceled", err)
	}

	release()
	wg.Wait()
	c := e.Counters()
	if c.TreeBuilds != 1 || c.BuildAborts != 0 {
		t.Fatalf("builds=%d aborts=%d, want 1/0 (leader had live interest)", c.TreeBuilds, c.BuildAborts)
	}
}

// TestLeaderPanicWakesAllFollowers is the regression test for the latent
// singleflight hazard: a leader that panics mid-build must wake every
// parked follower with the error, clear the flight, and leave the memo
// registry unpoisoned so the next identical query rebuilds cleanly.
// Exercised under -race in CI's chaos job.
func TestLeaderPanicWakesAllFollowers(t *testing.T) {
	const followers = 8
	e := New(randPoints(500, 2, 23), metric.L2{})

	gate := make(chan struct{})
	TestBuildHook = func(s string) {
		if s == "hier" {
			<-gate
			panic("injected build failure")
		}
	}
	t.Cleanup(func() { TestBuildHook = nil })

	errs := make(chan error, followers+1)
	var wg sync.WaitGroup
	for range followers + 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := e.Hierarchy(context.Background(), KindHDBSCAN, uint8(hdbscan.MemoGFK), 10)
			errs <- err
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for e.Counters().DendrogramCoalesced != followers {
		if time.Now().After(deadline) {
			close(gate)
			t.Fatalf("timed out parking followers: coalesced=%d", e.Counters().DendrogramCoalesced)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	close(errs)

	got := 0
	for err := range errs {
		got++
		var bp *BuildPanicError
		if !errors.As(err, &bp) {
			t.Fatalf("waiter got %v, want *BuildPanicError", err)
		}
		if bp.Stage != "hier" || bp.Value != "injected build failure" {
			t.Fatalf("panic error = %+v, want stage=hier value=injected build failure", bp)
		}
		if msg := bp.Error(); msg != "engine: hier stage build panicked: injected build failure" {
			t.Fatalf("BuildPanicError message = %q", msg)
		}
	}
	if got != followers+1 {
		t.Fatalf("woke %d waiters, want %d", got, followers+1)
	}
	c := e.Counters()
	if c.BuildPanics != 1 || c.DendrogramBuilds != 0 {
		t.Fatalf("panics=%d dendroBuilds=%d, want 1/0", c.BuildPanics, c.DendrogramBuilds)
	}

	// The flight is cleared and the memo unpoisoned: the same query now
	// rebuilds from scratch and succeeds.
	TestBuildHook = nil
	st := testHier(e, KindHDBSCAN, uint8(hdbscan.MemoGFK), 10)
	if st == nil || st.Dendro == nil {
		t.Fatal("rebuild after panic returned nil stage")
	}
	if c := e.Counters(); c.DendrogramBuilds != 1 {
		t.Fatalf("DendrogramBuilds after rebuild = %d, want 1", c.DendrogramBuilds)
	}
}

// TestBuildGateShedsColdBuilds proves the admission gate rejects cold
// builds with ErrOverloaded while leaving warm memoized reads untouched.
func TestBuildGateShedsColdBuilds(t *testing.T) {
	e := New(randPoints(300, 2, 24), metric.L2{})
	tr := testTree(e) // warm the tree before closing the gate

	e.SetBuildGate(func() (func(), bool) { return nil, false })
	if _, err := e.CoreDist(context.Background(), 5); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("cold CoreDist under closed gate: %v, want ErrOverloaded", err)
	}
	got, err := e.Tree(context.Background())
	if err != nil || got != tr {
		t.Fatalf("warm Tree under closed gate: (%p, %v), want memoized hit", got, err)
	}

	// Reopen: the same cold query is admitted, and release is called.
	var admitted, released int
	e.SetBuildGate(func() (func(), bool) {
		admitted++
		return func() { released++ }, true
	})
	if _, err := e.CoreDist(context.Background(), 5); err != nil {
		t.Fatalf("cold CoreDist under open gate: %v", err)
	}
	if admitted != 1 || released != 1 {
		t.Fatalf("gate admitted=%d released=%d, want 1/1", admitted, released)
	}
}

// TestBuildFaultInjection proves an armed engine.build failure point
// surfaces as the stage error to every waiter, leaves the memo unpoisoned,
// and disappears once disarmed.
func TestBuildFaultInjection(t *testing.T) {
	defer faultinject.Reset()
	e := New(randPoints(300, 2, 25), metric.L2{})
	boom := errors.New("injected: disk on fire")
	faultinject.Activate("engine.build", faultinject.Fault{Mode: faultinject.Error, Err: boom, Count: 1})

	if _, err := e.Tree(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("Tree under fault = %v, want %v", err, boom)
	}
	if c := e.Counters(); c.TreeBuilds != 0 {
		t.Fatalf("TreeBuilds = %d, want 0 (failed build must not publish)", c.TreeBuilds)
	}
	// Count: 1 self-disarmed; the retry succeeds.
	if tr := testTree(e); tr == nil {
		t.Fatal("rebuild after fault returned nil tree")
	}
}
