package unionfind

import (
	"math/rand"
	"testing"
)

func TestBasicOperations(t *testing.T) {
	u := New(5)
	if u.Components() != 5 {
		t.Fatalf("fresh UF has %d components", u.Components())
	}
	if !u.Union(0, 1) {
		t.Fatal("first union reported no merge")
	}
	if u.Union(1, 0) {
		t.Fatal("repeat union reported a merge")
	}
	if !u.Connected(0, 1) || u.Connected(0, 2) {
		t.Fatal("connectivity wrong after union")
	}
	if u.Components() != 4 {
		t.Fatalf("components = %d, want 4", u.Components())
	}
	u.Reset()
	if u.Components() != 5 || u.Connected(0, 1) {
		t.Fatal("reset did not restore singletons")
	}
}

// TestAgainstNaiveLabels runs random unions and checks Find-based
// connectivity against a brute-force label array.
func TestAgainstNaiveLabels(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(11))
	u := New(n)
	label := make([]int, n)
	for i := range label {
		label[i] = i
	}
	relabel := func(from, to int) {
		for i := range label {
			if label[i] == from {
				label[i] = to
			}
		}
	}
	for op := 0; op < 2000; op++ {
		x, y := int32(rng.Intn(n)), int32(rng.Intn(n))
		merged := u.Union(x, y)
		if merged == (label[x] == label[y]) {
			t.Fatalf("op %d: Union(%d,%d) merge=%v disagrees with labels", op, x, y, merged)
		}
		if merged {
			relabel(label[y], label[x])
		}
		// Spot-check connectivity.
		a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u.Connected(a, b) != (label[a] == label[b]) {
			t.Fatalf("op %d: Connected(%d,%d) disagrees with labels", op, a, b)
		}
	}
	comps := map[int]bool{}
	for _, l := range label {
		comps[l] = true
	}
	if u.Components() != len(comps) {
		t.Fatalf("component count %d, want %d", u.Components(), len(comps))
	}
}
