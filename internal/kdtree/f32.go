package kdtree

import (
	"parclust/internal/metric"
	"parclust/internal/parallel"
)

// F32ScanMax is both the SoA panel block size and the subtree size at
// which float32 traversals stop descending and lane-scan the node's
// contiguous kd-range instead. The engine builds trees with leafSize 1
// (the WSPD construction requires it), so blocking by leaf would yield
// single-element panels; fixed 32-position blocks over the kd-order
// permutation give every scan contiguous same-dimension lanes regardless
// of leaf granularity.
const F32ScanMax = 32

// F32 is the opt-in float32 representation of a tree's points: a row-major
// copy (for query vectors and row-row kernels) plus dimension-blocked SoA
// panels over the kd-order permutation, so a block's coordinates for one
// dimension are contiguous. Built once by Tree.EnableFloat32; immutable
// afterwards.
type F32 struct {
	// op is the tree metric's lane accumulator (Metric.Lane), cached so
	// scanInto switches on a stored enum instead of calling through the
	// interface once per chunk.
	op metric.LaneOp

	// rows is the row-major float32 copy of Tree.Pts (kd-order).
	rows []float32

	// panels holds ceil(n/F32ScanMax) blocks; block g stores the
	// coordinates of kd positions [g*F32ScanMax, (g+1)*F32ScanMax) as dim
	// contiguous lanes of F32ScanMax values each:
	// panels[(g*dim+k)*F32ScanMax + j] = coordinate k of position g*F32ScanMax+j.
	// The tail block is zero-padded; scans never read past their hi bound.
	panels []float32

	dim int
}

// EnableFloat32 attaches the float32 SoA representation to the tree,
// after which KNN, CoreDistances, range queries, BCCP, and Borůvka
// nearest-outside all take the float32 scan path. It fails if any
// coordinate exceeds the float32 magnitude bound (metric.MaxAbsCoord32);
// the tree is unchanged on error.
// Not safe to call concurrently with queries: enable before sharing the
// tree. Idempotent.
func (t *Tree) EnableFloat32() error {
	if t.f32 != nil {
		return nil
	}
	if err := metric.ValidateRows32(t.Pts); err != nil {
		return err
	}
	n, dim := t.Pts.N, t.Pts.Dim
	f := &F32{op: t.M.Lane(), dim: dim}
	if n > 0 {
		f.rows = make([]float32, n*dim)
		data := t.Pts.Data
		parallel.ForRange(n*dim, 1<<15, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				f.rows[i] = float32(data[i])
			}
		})
		nb := (n + F32ScanMax - 1) / F32ScanMax
		f.panels = make([]float32, nb*dim*F32ScanMax)
		parallel.For(nb, 8, func(g int) {
			base := g * F32ScanMax
			end := base + F32ScanMax
			if end > n {
				end = n
			}
			po := g * dim * F32ScanMax
			for p := base; p < end; p++ {
				row := f.rows[p*dim : (p+1)*dim]
				j := p - base
				for k, v := range row {
					f.panels[po+k*F32ScanMax+j] = v
				}
			}
		})
	}
	t.f32 = f
	return nil
}

// F32 returns the tree's float32 representation, or nil when the float64
// default is in effect.
func (t *Tree) F32() *F32 { return t.f32 }

// Row returns the float32 coordinate row of kd-order position p.
func (f *F32) Row(p int32) []float32 {
	r := int(p) * f.dim
	return f.rows[r : r+f.dim : r+f.dim]
}

// scanInto computes comparison-space distances from the query row q32 to
// the kd positions [lo, e), e = min(hi, lo+F32ScanMax), writing them to
// buf[0:e-lo], and returns e (a range that size spans at most two panel
// blocks). The accumulation walks dimension lanes: for each of the dim
// lanes it folds F32ScanMax-contiguous same-dimension coordinates into the
// accumulators, so the inner loop is a branch-free independent-iteration
// pass the compiler keeps in registers. It is scalar code: Go does not
// vectorize it, under GOAMD64=v3 either.
func (f *F32) scanInto(buf *[F32ScanMax]float32, lo, hi int32, q32 []float32) int32 {
	hi = min(hi, lo+F32ScanMax)
	dst := buf[:hi-lo]
	for i := range dst {
		dst[i] = 0
	}
	op := f.op
	dim := f.dim
	base := 0
	for s := lo; s < hi; {
		g := int(s) / F32ScanMax
		j0 := int(s) % F32ScanMax
		j1 := j0 + int(hi-s)
		if j1 > F32ScanMax {
			j1 = F32ScanMax
		}
		po := g * dim * F32ScanMax
		acc := dst[base : base+(j1-j0)]
		// Direct calls per lane op: an indirect call through a func value
		// would make escape analysis leak acc, forcing callers' stack scan
		// buffers to the heap (see metric.LaneOp).
		switch op {
		case metric.LaneSq:
			for k := 0; k < dim; k++ {
				off := po + k*F32ScanMax
				metric.SqLane32(acc, f.panels[off+j0:off+j1], q32[k])
			}
		case metric.LaneL1:
			for k := 0; k < dim; k++ {
				off := po + k*F32ScanMax
				metric.L1Lane32(acc, f.panels[off+j0:off+j1], q32[k])
			}
		case metric.LaneLInf:
			for k := 0; k < dim; k++ {
				off := po + k*F32ScanMax
				metric.LInfLane32(acc, f.panels[off+j0:off+j1], q32[k])
			}
		}
		base += j1 - j0
		s += int32(j1 - j0)
	}
	return hi
}
