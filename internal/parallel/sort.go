package parallel

import (
	"slices"
	"sort"
)

// Sort sorts a in place with a parallel merge sort using less as the strict
// weak ordering, allocating an n-element merge buffer. Inputs below 8,192
// elements and single-worker runs use slices.SortFunc instead. Either way
// less stays a func value: generic code is compiled once per GC shape, so
// every comparison calls less indirectly, through seqSort's adapter
// closure, and it is never inlined. The sort is not stable.
func Sort[T any](a []T, less func(x, y T) bool) {
	n := len(a)
	if Workers() == 1 || n < 1<<13 {
		seqSort(a, less)
		return
	}
	buf := make([]T, n)
	mergeSort(a, buf, less, 0)
}

// seqSort is the sequential leaf sort shared by Sort and mergeSort.
func seqSort[T any](a []T, less func(x, y T) bool) {
	slices.SortFunc(a, func(x, y T) int {
		if less(x, y) {
			return -1
		}
		if less(y, x) {
			return 1
		}
		return 0
	})
}

const sortGrain = 1 << 12

// mergeSort sorts a using buf as scratch. depth caps goroutine spawning.
func mergeSort[T any](a, buf []T, less func(x, y T) bool, depth int) {
	if len(a) <= sortGrain || depth > 10 {
		seqSort(a, less)
		return
	}
	mid := len(a) / 2
	Do(
		func() { mergeSort(a[:mid], buf[:mid], less, depth+1) },
		func() { mergeSort(a[mid:], buf[mid:], less, depth+1) },
	)
	parMerge(a[:mid], a[mid:], buf, less, depth)
	copy(a, buf)
}

// parMerge merges sorted x and y into out (len(out) == len(x)+len(y)),
// splitting recursively by the median of the larger input.
func parMerge[T any](x, y, out []T, less func(x, y T) bool, depth int) {
	if len(x)+len(y) <= 2*sortGrain || depth > 10 {
		seqMerge(x, y, out, less)
		return
	}
	if len(x) < len(y) {
		x, y = y, x
	}
	mx := len(x) / 2
	pivot := x[mx]
	my := sort.Search(len(y), func(i int) bool { return !less(y[i], pivot) })
	Do(
		func() { parMerge(x[:mx], y[:my], out[:mx+my], less, depth+1) },
		func() { parMerge(x[mx:], y[my:], out[mx+my:], less, depth+1) },
	)
}

func seqMerge[T any](x, y, out []T, less func(x, y T) bool) {
	i, j, k := 0, 0, 0
	for i < len(x) && j < len(y) {
		if less(y[j], x[i]) {
			out[k] = y[j]
			j++
		} else {
			out[k] = x[i]
			i++
		}
		k++
	}
	for i < len(x) {
		out[k] = x[i]
		i++
		k++
	}
	for j < len(y) {
		out[k] = y[j]
		j++
		k++
	}
}

// NthElement partially sorts a so that the element with rank k (0-based)
// under less is at index k, smaller elements before it and larger after it
// (quickselect). It is used for the heavy/light edge split of Section 4.
func NthElement[T any](a []T, k int, less func(x, y T) bool) {
	lo, hi := 0, len(a)
	for hi-lo > 32 {
		// Median-of-three pivot on a deterministic probe.
		m := lo + (hi-lo)/2
		p1, p2, p3 := a[lo], a[m], a[hi-1]
		pivot := medianOf3(p1, p2, p3, less)
		i, j := lo, hi-1
		for i <= j {
			for less(a[i], pivot) {
				i++
			}
			for less(pivot, a[j]) {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j + 1
		case k >= i:
			lo = i
		default:
			return
		}
	}
	sub := a[lo:hi]
	sort.Slice(sub, func(i, j int) bool { return less(sub[i], sub[j]) })
}

func medianOf3[T any](a, b, c T, less func(x, y T) bool) T {
	if less(b, a) {
		a, b = b, a
	}
	if less(c, b) {
		b = c
		if less(b, a) {
			b = a
		}
	}
	return b
}
