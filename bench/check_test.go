package main

import (
	"math"
	"slices"
	"testing"

	"parclust"
)

// A path 0-1-2-3-4 is a spanning tree; each corruption below breaks it.
func pathTree() []parclust.Edge {
	return []parclust.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 2, V: 3, W: 3}, {U: 3, V: 4, W: 4}}
}

func TestCorruptedMSTFailsTheChecker(t *testing.T) {
	var c checker
	c.spanningTree("valid", 5, pathTree())
	if !c.ok() {
		t.Fatalf("valid tree failed: %v", c.failures)
	}
	for name, corrupt := range map[string]func([]parclust.Edge) []parclust.Edge{
		"edge dropped":     func(e []parclust.Edge) []parclust.Edge { return e[:3] },
		"cycle, 4 cut off": func(e []parclust.Edge) []parclust.Edge { e[3] = parclust.Edge{U: 0, V: 3, W: 4}; return e },
		"self loop":        func(e []parclust.Edge) []parclust.Edge { e[1] = parclust.Edge{U: 2, V: 2, W: 2}; return e },
		"id out of range":  func(e []parclust.Edge) []parclust.Edge { e[2].V = 9; return e },
	} {
		var c checker
		c.spanningTree(name, 5, corrupt(pathTree()))
		if c.ok() {
			t.Errorf("%s: spanning-tree check passed", name)
		}
	}

	// A weight one ulp off changes the fingerprint and the merge heights,
	// and fails a bit-identity check.
	bad := pathTree()
	bad[2].W = math.Nextafter(3, 4)
	if fingerprint(bad) == fingerprint(pathTree()) {
		t.Error("fingerprint ignores a one-ulp weight change")
	}
	c = checker{}
	c.sameHeights("heights", pathTree(), bad)
	c.sameBits("weight", pathTree()[2].W, bad[2].W)
	if len(c.failures) != 2 {
		t.Errorf("one-ulp corruption raised %d failures, want 2: %v", len(c.failures), c.failures)
	}
}

func TestCorruptedLabelsFailTheChecker(t *testing.T) {
	want := []int32{0, 0, 1, -1, 1}
	var c checker
	c.sameLabels("valid", want, slices.Clone(want))
	if !c.ok() {
		t.Fatalf("equal labels failed: %v", c.failures)
	}
	flipped := slices.Clone(want)
	flipped[3] = 1
	for name, got := range map[string][]int32{"flipped": flipped, "truncated": want[:4]} {
		var c checker
		c.sameLabels(name, want, got)
		if c.ok() {
			t.Errorf("%s labels passed", name)
		}
	}
}

func TestNeighborAndToleranceChecks(t *testing.T) {
	want := []parclust.Neighbor{{Idx: 4}, {Idx: 2}}
	var c checker
	c.sameNeighbors("equal", want, []int32{4, 2})
	c.relErr("within", 100, 100.005, 1e-4)
	if !c.ok() {
		t.Fatalf("valid answers failed: %v", c.failures)
	}
	c.sameNeighbors("reordered", want, []int32{2, 4})
	c.relErr("outside", 100, 100.02, 1e-4)
	if len(c.failures) != 2 {
		t.Errorf("got %d failures, want 2: %v", len(c.failures), c.failures)
	}
}
