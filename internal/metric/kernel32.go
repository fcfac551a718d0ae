package metric

import (
	"fmt"
	"math"

	"parclust/internal/geometry"
)

// Kernel32 is the float32 fast-path companion of a Metric: hand-unrolled
// row kernels plus per-dimension lane accumulators for the k-d tree's
// dimension-blocked SoA leaf panels. Distances are computed and compared
// in the kernel's comparison space — squared Euclidean for the L2 family
// (l2, sql2, angular: squaring and the chord→angle map are monotone, so
// orderings are preserved) and the metric itself for l1/linf — while all
// spatial pruning keeps using the exact float64 box bounds, so a float32
// traversal diverges from the float64 one only by float32 rounding of the
// point-pair distances themselves, never by unsound pruning.
type Kernel32 struct {
	// Name is the canonical name of the underlying kernel.
	Name string

	// Sq reports that the comparison space is squared Euclidean (true for
	// l2, sql2, and angular). Such kernels can substitute directly into the
	// squared-space traversals (BCCP-Sq, mutual reachability).
	Sq bool

	// Row returns the comparison-space distance between two rows of equal
	// length. It runs four independent accumulator chains so the compiler
	// keeps partial sums in registers.
	Row func(a, b []float32) float32

	// Op selects the lane accumulator for the SoA panel scans. It is an
	// enum rather than a func value because the scan's caller keeps its
	// accumulators in a stack array: an indirect call would make escape
	// analysis assume the slice leaks and force that array to the heap on
	// every query, while a switch over Op resolves to direct calls of the
	// named lane functions below.
	Op LaneOp

	// Finish maps a comparison-space value (widened to float64) to the
	// metric's reported distance.
	Finish func(float64) float64

	// CmpRadius maps a metric-space radius to comparison space, so range
	// predicates `dist <= r` become `cmp <= CmpRadius(r)`.
	CmpRadius func(r float64) float64

	// PointBoxLB lower-bounds the comparison-space distance from q to any
	// point of box b, in exact float64 arithmetic.
	PointBoxLB func(q []float64, b geometry.Box) float64

	// PointBoxUB upper-bounds the comparison-space distance from q to any
	// point of box b, in exact float64 arithmetic.
	PointBoxUB func(q []float64, b geometry.Box) float64
}

// LaneOp names one of the lane accumulators (SqLane32, L1Lane32,
// LInfLane32).
type LaneOp uint8

const (
	LaneSq LaneOp = iota
	LaneL1
	LaneLInf
)

// Kernel32For returns the float32 fast-path family for m. Every built-in
// kernel is supported; ok is false for unknown third-party metrics.
func Kernel32For(m Metric) (k Kernel32, ok bool) {
	switch m.(type) {
	case L2:
		return Kernel32{
			Name: "l2", Sq: true,
			Row: SqDistRow32, Op: LaneSq,
			Finish:    math.Sqrt,
			CmpRadius: func(r float64) float64 { return r * r },
			PointBoxLB: func(q []float64, b geometry.Box) float64 {
				return geometry.SqDistPointBox(q, b)
			},
			PointBoxUB: func(q []float64, b geometry.Box) float64 {
				return geometry.SqMaxDistBoxes(pointBox32(q), b)
			},
		}, true
	case SqL2:
		return Kernel32{
			Name: "sql2", Sq: true,
			Row: SqDistRow32, Op: LaneSq,
			Finish:    ident64,
			CmpRadius: ident64,
			PointBoxLB: func(q []float64, b geometry.Box) float64 {
				return geometry.SqDistPointBox(q, b)
			},
			PointBoxUB: func(q []float64, b geometry.Box) float64 {
				return geometry.SqMaxDistBoxes(pointBox32(q), b)
			},
		}, true
	case Angular:
		return Kernel32{
			Name: "angular", Sq: true,
			Row: SqDistRow32, Op: LaneSq,
			Finish: angleFromSqChord,
			CmpRadius: func(r float64) float64 {
				// Invert angle→chord: squared chord of angle r, clamped to
				// the sphere's diameter.
				s := math.Sin(math.Min(r, math.Pi) / 2)
				return 4 * s * s
			},
			PointBoxLB: func(q []float64, b geometry.Box) float64 {
				return geometry.SqDistPointBox(q, b)
			},
			PointBoxUB: func(q []float64, b geometry.Box) float64 {
				return geometry.SqMaxDistBoxes(pointBox32(q), b)
			},
		}, true
	case L1:
		return Kernel32{
			Name: "l1", Sq: false,
			Row: L1DistRow32, Op: LaneL1,
			Finish:     ident64,
			CmpRadius:  ident64,
			PointBoxLB: L1{}.PointBoxLB,
			PointBoxUB: func(q []float64, b geometry.Box) float64 {
				return L1{}.BoxesUB(pointBox32(q), b)
			},
		}, true
	case LInf:
		return Kernel32{
			Name: "linf", Sq: false,
			Row: LInfDistRow32, Op: LaneLInf,
			Finish:     ident64,
			CmpRadius:  ident64,
			PointBoxLB: LInf{}.PointBoxLB,
			PointBoxUB: func(q []float64, b geometry.Box) float64 {
				return LInf{}.BoxesUB(pointBox32(q), b)
			},
		}, true
	}
	return Kernel32{}, false
}

func ident64(d float64) float64 { return d }

func pointBox32(q []float64) geometry.Box { return geometry.Box{Lo: q, Hi: q} }

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

// L1DistRow32 returns the Manhattan distance between equal-length float32
// rows with the same 4× accumulator structure as SqDistRow32.
func L1DistRow32(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	for len(a) >= 4 && len(b) >= 4 {
		s0 += abs32(a[0] - b[0])
		s1 += abs32(a[1] - b[1])
		s2 += abs32(a[2] - b[2])
		s3 += abs32(a[3] - b[3])
		a, b = a[4:], b[4:]
	}
	for i := range a {
		s0 += abs32(a[i] - b[i])
	}
	return (s0 + s1) + (s2 + s3)
}

// LInfDistRow32 returns the Chebyshev distance between equal-length float32
// rows, folding four independent running maxima.
func LInfDistRow32(a, b []float32) float32 {
	var m0, m1, m2, m3 float32
	for len(a) >= 4 && len(b) >= 4 {
		m0 = max32(m0, abs32(a[0]-b[0]))
		m1 = max32(m1, abs32(a[1]-b[1]))
		m2 = max32(m2, abs32(a[2]-b[2]))
		m3 = max32(m3, abs32(a[3]-b[3]))
		a, b = a[4:], b[4:]
	}
	for i := range a {
		m0 = max32(m0, abs32(a[i]-b[i]))
	}
	return max32(max32(m0, m1), max32(m2, m3))
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

func max32(a, b float32) float32 {
	if b > a {
		return b
	}
	return a
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
