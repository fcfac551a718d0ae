package kdtree

import (
	"sort"
	"testing"
	"testing/quick"

	"parclust/internal/metric"
)

func TestRangeQueryMatchesBruteForce(t *testing.T) {
	pts := randPoints(400, 3, 31)
	tr := BuildMetric(pts, 8, metric.L2{})
	for _, r := range []float64{0, 1, 10, 50, 1000} {
		for q := 0; q < pts.N; q += 37 {
			got := tr.RangeQuery(int32(q), r)
			var want []int32
			for j := 0; j < pts.N; j++ {
				if pts.Dist(q, j) <= r {
					want = append(want, int32(j))
				}
			}
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if len(got) != len(want) {
				t.Fatalf("r=%v q=%d: %d results, want %d", r, q, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("r=%v q=%d: result %d is %d, want %d", r, q, i, got[i], want[i])
				}
			}
			if cnt := tr.RangeCount(int32(q), r); cnt != len(want) {
				t.Fatalf("r=%v q=%d: RangeCount=%d, want %d", r, q, cnt, len(want))
			}
		}
	}
}

func TestRangeCountQuick(t *testing.T) {
	pts := randPoints(200, 2, 33)
	tr := BuildMetric(pts, 4, metric.L2{})
	f := func(qRaw uint8, rRaw uint8) bool {
		q := int32(int(qRaw) % pts.N)
		r := float64(rRaw)
		return tr.RangeCount(q, r) == len(tr.RangeQuery(q, r))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
