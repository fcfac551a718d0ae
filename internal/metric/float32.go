package metric

import (
	"fmt"
	"math"

	"parclust/internal/geometry"
)

// LaneOp names one of the lane accumulators (SqLane32, L1Lane32,
// LInfLane32). It is an enum rather than a func value because a float32
// scan keeps its accumulators in a stack array: an indirect call would
// make escape analysis assume the slice leaks and force that array to the
// heap on every query, while a switch over a LaneOp resolves to direct
// calls of the named lane functions.
type LaneOp uint8

const (
	LaneSq LaneOp = iota
	LaneL1
	LaneLInf
)

// SqDistRow32 returns the squared Euclidean distance between equal-length
// float32 rows, accumulating four independent partial sums so the inner
// loop has no loop-carried dependency chain longer than one add.
func SqDistRow32(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	for len(a) >= 4 && len(b) >= 4 {
		d0 := a[0] - b[0]
		d1 := a[1] - b[1]
		d2 := a[2] - b[2]
		d3 := a[3] - b[3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		a, b = a[4:], b[4:]
	}
	for i := range a {
		d := a[i] - b[i]
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

// SqLane32 folds one coordinate lane into squared-distance accumulators.
func SqLane32(acc, lane []float32, q float32) {
	lane = lane[:len(acc)]
	for j := range acc {
		d := lane[j] - q
		acc[j] += d * d
	}
}

// L1Lane32 folds one coordinate lane into L1 accumulators.
func L1Lane32(acc, lane []float32, q float32) {
	lane = lane[:len(acc)]
	for j := range acc {
		acc[j] += abs32(lane[j] - q)
	}
}

// LInfLane32 folds one coordinate lane into running-max accumulators.
func LInfLane32(acc, lane []float32, q float32) {
	lane = lane[:len(acc)]
	for j := range acc {
		if d := abs32(lane[j] - q); d > acc[j] {
			acc[j] = d
		}
	}
}

func abs32(x float32) float32 {
	return math.Float32frombits(math.Float32bits(x) &^ (1 << 31))
}

// MaxAbsCoord32 is the largest coordinate magnitude the float32 fast path
// accepts for the given dimension. It is chosen so that every squared-space
// accumulation stays at least 4× below math.MaxFloat32 in the worst case
// (all dim lanes at opposite extremes), so comparison-space values can
// never round up to +Inf.
func MaxAbsCoord32(dim int) float64 {
	return maxAbsCoord(math.MaxFloat32, dim)
}

// MaxAbsCoord64 is MaxAbsCoord32's float64 twin: the largest coordinate
// magnitude the float64 kernels that square coordinate differences (L2 and
// SqL2) accept, so their squared point and box distances stay at least 4×
// below math.MaxFloat64.
func MaxAbsCoord64(dim int) float64 {
	return maxAbsCoord(math.MaxFloat64, dim)
}

// maxAbsCoord is the magnitude m at which dim lanes at opposite extremes
// square to a quarter of limit: dim·(2m)² = limit/4.
func maxAbsCoord(limit float64, dim int) float64 {
	if dim < 1 {
		dim = 1
	}
	return 0.25 * math.Sqrt(limit/float64(dim))
}

// ValidateRows32 checks that every coordinate of pts is representable on
// the float32 fast path: finite and within MaxAbsCoord32(dim). It returns
// an error naming the first offending point; the float64 path remains
// available for such inputs.
func ValidateRows32(pts geometry.Points) error {
	bound := MaxAbsCoord32(pts.Dim)
	for i, v := range pts.Data {
		if math.Abs(v) > bound || math.IsNaN(v) {
			return fmt.Errorf("metric: point %d coordinate %d (%v) exceeds the float32 magnitude bound %.4g; use the float64 path for this dataset",
				i/pts.Dim, i%pts.Dim, v, bound)
		}
	}
	return nil
}
