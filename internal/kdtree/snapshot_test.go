package kdtree

import (
	"encoding/binary"
	"testing"

	"parclust/internal/metric"
)

// TestSnapshotRoundTrip encodes and decodes trees across sizes, dimensions,
// and metrics, and checks the restored tree is structurally identical and
// answers queries exactly like the original.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 17, 256, 3000} {
		for _, dim := range []int{2, 3, 5} {
			for _, m := range []metric.Metric{metric.L2{}, metric.L1{}} {
				pts := randPoints(n, dim, int64(n*dim+1))
				orig := BuildMetric(pts, 1, m)
				buf := orig.AppendSnapshot(nil)
				if len(buf) != orig.SnapshotSize() {
					t.Fatalf("n=%d dim=%d: encoded %d bytes, SnapshotSize says %d", n, dim, len(buf), orig.SnapshotSize())
				}
				dec, err := DecodeSnapshot(buf, pts, m)
				if err != nil {
					t.Fatalf("n=%d dim=%d %s: decode: %v", n, dim, m.Name(), err)
				}
				if dec.nalloc.Load() != orig.nalloc.Load() || dec.LeafSize != orig.LeafSize {
					t.Fatalf("n=%d: %d nodes / leaf %d, want %d / %d",
						n, dec.nalloc.Load(), dec.LeafSize, orig.nalloc.Load(), orig.LeafSize)
				}
				for i := range orig.Orig {
					if dec.Orig[i] != orig.Orig[i] || dec.Inv[i] != orig.Inv[i] {
						t.Fatalf("n=%d: permutation mismatch at %d", n, i)
					}
				}
				for i := range orig.Pts.Data {
					if dec.Pts.Data[i] != orig.Pts.Data[i] {
						t.Fatalf("n=%d: kd-order row data mismatch at %d", n, i)
					}
				}
				if n == 0 {
					continue
				}
				checkTree(t, dec)
				for q := int32(0); q < int32(min(n, 25)); q++ {
					a, b := orig.KNN(q, min(n, 8)), dec.KNN(q, min(n, 8))
					for i := range a {
						if a[i] != b[i] {
							t.Fatalf("n=%d q=%d: KNN mismatch", n, q)
						}
					}
					if orig.RangeCount(q, 20) != dec.RangeCount(q, 20) {
						t.Fatalf("n=%d q=%d: RangeCount mismatch", n, q)
					}
				}
				cdA, cdB := orig.CoreDistances(min(n, 4)), dec.CoreDistances(min(n, 4))
				for i := range cdA {
					if cdA[i] != cdB[i] {
						t.Fatalf("n=%d: core distance mismatch at %d", n, i)
					}
				}
			}
		}
	}
}

// TestSnapshotDecodeRejectsCorruption flips bytes and truncates the
// encoding at every offset; decode must fail cleanly (or, for mutations
// that keep all invariants intact, succeed) and never panic.
func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	pts := randPoints(64, 3, 7)
	tr := BuildMetric(pts, 1, metric.L2{})
	buf := tr.AppendSnapshot(nil)

	for cut := 0; cut <= len(buf); cut += 7 {
		if cut == len(buf) {
			continue
		}
		if _, err := DecodeSnapshot(buf[:cut], pts, metric.L2{}); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}

	// Structural fields (header, permutation, node ranges and child
	// indices): corrupt every byte of them. Decode must either reject the
	// mutation or produce a tree whose queries run without panicking —
	// float payload corruption (radii, boxes) is the store layer's
	// checksum job; structure is what keeps traversals memory-safe.
	var offsets []int
	for off := 0; off < 12+4*pts.N; off++ {
		offsets = append(offsets, off)
	}
	nodesBase := 12 + 4*pts.N
	for i := 0; i < int(tr.nalloc.Load()); i++ {
		for off := 0; off < 16; off++ { // Lo, Hi, Left, Right
			offsets = append(offsets, nodesBase+i*snapNodeBytes+off)
		}
	}
	for _, off := range offsets {
		mut := append([]byte(nil), buf...)
		mut[off] ^= 0x80
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decode/query panicked on corruption at offset %d: %v", off, r)
				}
			}()
			dec, err := DecodeSnapshot(mut, pts, metric.L2{})
			if err != nil || dec == nil {
				return
			}
			// A surviving mutation must still serve queries memory-safely.
			dec.KNN(0, 4)
			dec.RangeCount(1, 10)
		}()
	}

	// Duplicate permutation entry: position 1 claims the same original id
	// as position 0.
	mut := append([]byte(nil), buf...)
	binary.LittleEndian.PutUint32(mut[16:], binary.LittleEndian.Uint32(mut[12:]))
	if _, err := DecodeSnapshot(mut, pts, metric.L2{}); err == nil {
		t.Fatal("duplicate permutation entry decoded successfully")
	}
}
