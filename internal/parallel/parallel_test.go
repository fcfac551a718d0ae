package parallel

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 10000} {
		hit := make([]int32, n)
		var mu sync.Mutex
		For(n, 3, func(i int) {
			mu.Lock()
			hit[i]++
			mu.Unlock()
		})
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("n=%d: index %d hit %d times", n, i, h)
			}
		}
	}
}

func TestForRangePartition(t *testing.T) {
	n := 12345
	covered := make([]bool, n)
	var mu sync.Mutex
	ForRange(n, 100, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad range [%d,%d)", lo, hi)
		}
		mu.Lock()
		for i := lo; i < hi; i++ {
			if covered[i] {
				t.Errorf("index %d covered twice", i)
			}
			covered[i] = true
		}
		mu.Unlock()
	})
	for i, c := range covered {
		if !c {
			t.Fatalf("index %d not covered", i)
		}
	}
}

func TestSortMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 2, 100, 1 << 14} {
		a := make([]float64, n)
		for i := range a {
			a[i] = rng.Float64()
		}
		b := append([]float64(nil), a...)
		Sort(a, func(x, y float64) bool { return x < y })
		sort.Float64s(b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("n=%d: parallel sort differs at %d", n, i)
			}
		}
	}
}

func TestSortQuick(t *testing.T) {
	f := func(a []float32) bool {
		x := append([]float32(nil), a...)
		Sort(x, func(p, q float32) bool { return p < q })
		return sort.SliceIsSorted(x, func(i, j int) bool { return x[i] < x[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNthElement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 50, 1000} {
		for trial := 0; trial < 5; trial++ {
			a := make([]int, n)
			for i := range a {
				a[i] = rng.Intn(100)
			}
			k := rng.Intn(n)
			b := append([]int(nil), a...)
			sort.Ints(b)
			NthElement(a, k, func(x, y int) bool { return x < y })
			if a[k] != b[k] {
				t.Fatalf("n=%d k=%d: got %d want %d", n, k, a[k], b[k])
			}
			for i := 0; i < k; i++ {
				if a[i] > a[k] {
					t.Fatalf("element before k exceeds kth")
				}
			}
			for i := k + 1; i < n; i++ {
				if a[i] < a[k] {
					t.Fatalf("element after k below kth")
				}
			}
		}
	}
}

func TestReduceMin(t *testing.T) {
	vals := []float64{5, 3, 8, 3, 9}
	idx, v := ReduceMin(len(vals), 1, func(i int) float64 { return vals[i] })
	if v != 3 || idx != 1 {
		t.Fatalf("got (%d,%v), want (1,3) with smallest-index tie-break", idx, v)
	}
	idx, v = ReduceMin(0, 1, func(i int) float64 { return 0 })
	if idx != -1 || !math.IsInf(v, 1) {
		t.Fatalf("empty reduce: got (%d,%v)", idx, v)
	}
}

func TestAtomicMinFloat64(t *testing.T) {
	a := NewAtomicMinFloat64(math.Inf(1))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				a.Min(float64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if a.Load() != 0 {
		t.Fatalf("concurrent min: got %v, want 0", a.Load())
	}
	if a.Min(5) {
		t.Fatal("Min reported a store for a larger value")
	}
}
