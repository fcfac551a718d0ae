package engine

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"testing"

	"parclust/internal/generator"
	"parclust/internal/geometry"
	"parclust/internal/hdbscan"
	"parclust/internal/kdtree"
	"parclust/internal/metric"
	"parclust/internal/mst"
)

// goldenOutputs names the fingerprinted outputs of one configuration, in
// the order of the goldenTraversals rows.
var goldenOutputs = [...]string{
	"core", "knn", "range", "count",
	"knnLive", "rangeLive", "countLive",
	"emst/memogfk", "emst/gfk", "emst/naive", "emst/wspdboruvka", "emst/boruvka",
	"hdbscan/memogfk", "hdbscan/gantao", "hdbscan/gantaofull",
}

// goldenTraversals holds FNV-64a fingerprints of every traversal family's
// output per (dataset, metric, dtype), recorded before the k-d tree and
// MemoGFK traversals were merged across dtypes and metrics.
var goldenTraversals = map[string][len(goldenOutputs)]uint64{
	"geo3d/l2/f32=false": {
		0x13e874f3c223711d, 0x98cb21bbb4e88f09, 0xf72996298f63f17b, 0x4930593c98e691b5, 0xe6f132b3c3f8b217,
		0x754432bd4f072ca3, 0x36c2e1fa3cd79f18, 0xd91a6e5811b386b8, 0xd91a6e5811b386b8, 0xd91a6e5811b386b8,
		0xd91a6e5811b386b8, 0xd91a6e5811b386b8, 0xff30b71e97296b57, 0x020c6d28ce1751f3, 0xc5f0d0cf65c1aed0,
	},
	"geo3d/l2/f32=true": {
		0xb26d1387f2810074, 0x84cb5ede113e0350, 0xf51f7c9be8fefb91, 0x7f1a91d9a786d533, 0xe6f132b3c3f8b217,
		0xfd7677d973d1e3b8, 0x9104c34fa9c80e39, 0xd91a6e5811b386b8, 0x04cb1d44cee4da96, 0x04cb1d44cee4da96,
		0x04cb1d44cee4da96, 0x04cb1d44cee4da96, 0xc8d9cb46126dea7e, 0xc8d9cb46126dea7e, 0xdb92fe427c140731,
	},
	"geo3d/sql2/f32=false": {
		0x4efc52b7f1058c76, 0xbceb5d0c18328a89, 0xf51f7c9be8fefb91, 0x7f1a91d9a786d533, 0xb2199180d06d93ba,
		0xfd7677d973d1e3b8, 0x9104c34fa9c80e39, 0x6d4d30defb403c1b, 0x6d4d30defb403c1b, 0x6d4d30defb403c1b,
		0x6d4d30defb403c1b, 0x6d4d30defb403c1b, 0xb6ab2b846b8ea8ee, 0xb6ab2b846b8ea8ee, 0xb6ab2b846b8ea8ee,
	},
	"geo3d/sql2/f32=true": {
		0x94021283ea0fba16, 0x2ba4057b24ab2694, 0xf51f7c9be8fefb91, 0x7f1a91d9a786d533, 0xb2199180d06d93ba,
		0xfd7677d973d1e3b8, 0x9104c34fa9c80e39, 0x6d4d30defb403c1b, 0x6d4d30defb403c1b, 0x6d4d30defb403c1b,
		0x6d4d30defb403c1b, 0x0535b7235a12b0e1, 0xb537a3541865e54c, 0xb537a3541865e54c, 0xb537a3541865e54c,
	},
	"geo3d/l1/f32=false": {
		0x30cc2ea72027ff3a, 0x57f050c05f45eabd, 0xe65f81b8de508ff9, 0x2d7c94c179196b5a, 0x73dc0ac28c989c6b,
		0x8cf8da93bba8b724, 0x484b8ffadd5b9e33, 0xb6bcb2cf28ee430c, 0xb6bcb2cf28ee430c, 0xb6bcb2cf28ee430c,
		0xb6bcb2cf28ee430c, 0xb6bcb2cf28ee430c, 0x573a7baf998814e0, 0x573a7baf998814e0, 0x573a7baf998814e0,
	},
	"geo3d/l1/f32=true": {
		0x876fc6ec757d4a44, 0x830ea85ac5b19ec5, 0xe65f81b8de508ff9, 0x2d7c94c179196b5a, 0x73dc0ac28c989c6b,
		0x8cf8da93bba8b724, 0x1486238e003c5ea2, 0xb6bcb2cf28ee430c, 0xb6bcb2cf28ee430c, 0xb6bcb2cf28ee430c,
		0xb6bcb2cf28ee430c, 0x6da6931d916dc53d, 0xd159f1316c4e401d, 0xd159f1316c4e401d, 0xd159f1316c4e401d,
	},
	"geo3d/linf/f32=false": {
		0xe23a92e985e88c3b, 0xfdbccdb1779d2f2f, 0xefee6db5abfee853, 0x8b433fafbe2be176, 0x6e7e78a500316bc5,
		0x9cb44aa01b97c8ce, 0x48f48220b035a96f, 0xb91def8a434ee2ec, 0xb91def8a434ee2ec, 0xb91def8a434ee2ec,
		0xb91def8a434ee2ec, 0xb91def8a434ee2ec, 0xd33ff7a8719613d5, 0xd33ff7a8719613d5, 0xec3b75f5c78c2cb6,
	},
	"geo3d/linf/f32=true": {
		0xb327d7e77919b50b, 0x138ca2261bc48fad, 0xefee6db5abfee853, 0x8b433fafbe2be176, 0x6e7e78a500316bc5,
		0x9cb44aa01b97c8ce, 0xc08d2886b0f7238d, 0xb91def8a434ee2ec, 0xb91def8a434ee2ec, 0xb91def8a434ee2ec,
		0xb91def8a434ee2ec, 0x858727b573cf0348, 0xb8daa627c8a0face, 0xb8daa627c8a0face, 0xb8daa627c8a0face,
	},
	"geo3d/angular/f32=false": {
		0xc5ea3c81a1eb72f6, 0x835d7d45b3509de4, 0x30193e625d1f54bf, 0x487b865f4b164086, 0x501949db78a38e44,
		0x0f736d128c0599cf, 0x4642448e55c51dd8, 0x0a0d0ec431a37e04, 0x0a0d0ec431a37e04, 0x0a0d0ec431a37e04,
		0x0a0d0ec431a37e04, 0x0a0d0ec431a37e04, 0x028c3fd6d34aa1a4, 0x028c3fd6d34aa1a4, 0x2c47e42780808787,
	},
	"geo3d/angular/f32=true": {
		0x8ca070120c1f4588, 0x769722ebe95f26c2, 0x30193e625d1f54bf, 0x487b865f4b164086, 0x501949db78a38e44,
		0x92f662b8c7119005, 0x81bae24b25b77279, 0x0a0d0ec431a37e04, 0x0a0d0ec431a37e04, 0x0a0d0ec431a37e04,
		0x0a0d0ec431a37e04, 0xd70b684c9523fef8, 0x7fb369f0609f6ba7, 0x7fb369f0609f6ba7, 0x991f32c8a60e7268,
	},
	"embed16/l2/f32=false": {
		0xa7a8ae91db71aaaf, 0x7e2833e0761c9c35, 0x1abdb68fd96ec861, 0x9a306085deaa7a45, 0x3ab2022adba82373,
		0x7d99cf3bc69b9ad0, 0x85eec42491c57fa5, 0x511df4eb6cf52b70, 0x511df4eb6cf52b70, 0x511df4eb6cf52b70,
		0x511df4eb6cf52b70, 0x511df4eb6cf52b70, 0xf99f314dbe26ddad, 0xf99f314dbe26ddad, 0xf99f314dbe26ddad,
	},
	"embed16/l2/f32=true": {
		0xe18cba58d94bf653, 0x59c5c16359c136b1, 0x4c5ee15fd2754985, 0x7817c10fee3274c9, 0x3ab2022adba82373,
		0x4d161271b3df19d7, 0xaf70d2ebc1a159e4, 0x511df4eb6cf52b70, 0xd7f75e41da6e51fd, 0xd7f75e41da6e51fd,
		0xd7f75e41da6e51fd, 0xd7f75e41da6e51fd, 0x6a76d25f56ecc9c7, 0x6a76d25f56ecc9c7, 0x6a76d25f56ecc9c7,
	},
	"embed16/sql2/f32=false": {
		0xb9c506ed81fef19a, 0xe066f7e16ab9233d, 0x4c5ee15fd2754985, 0x28385c95d1a8968b, 0xc6394066254a1f2f,
		0x4d161271b3df19d7, 0x6c0722162733f095, 0xb49336baaeb90a72, 0xb49336baaeb90a72, 0xb49336baaeb90a72,
		0xb49336baaeb90a72, 0xb49336baaeb90a72, 0xf37c277320e01cb4, 0xf37c277320e01cb4, 0xf37c277320e01cb4,
	},
	"embed16/sql2/f32=true": {
		0x07978e866ab99145, 0x4def1f960004a438, 0x4c5ee15fd2754985, 0x28385c95d1a8968b, 0xc6394066254a1f2f,
		0x4d161271b3df19d7, 0xaf70d2ebc1a159e4, 0xb49336baaeb90a72, 0xb49336baaeb90a72, 0xb49336baaeb90a72,
		0xb49336baaeb90a72, 0xcc2b0d0cbb1b0bad, 0xf84c27fab88146cc, 0xf84c27fab88146cc, 0xf84c27fab88146cc,
	},
	"embed16/l1/f32=false": {
		0x7b4bbe04fb42e585, 0xdd3faaa2466f6974, 0x6bbcc722df385424, 0x57bcc88f22f51229, 0x00589ea09e8fab1f,
		0x0767eb3fbf8b13ad, 0x4e48de07e2352388, 0x13ff5f8a0d5f9ef7, 0x13ff5f8a0d5f9ef7, 0x13ff5f8a0d5f9ef7,
		0x13ff5f8a0d5f9ef7, 0x13ff5f8a0d5f9ef7, 0x3969e73d1604c560, 0x40d18458eaa3b9c7, 0x40d18458eaa3b9c7,
	},
	"embed16/l1/f32=true": {
		0xb024761e3f0f15b5, 0x0fa77b8011e33796, 0x6bbcc722df385424, 0x57bcc88f22f51229, 0x00589ea09e8fab1f,
		0x0767eb3fbf8b13ad, 0x4e48de07e2352388, 0x13ff5f8a0d5f9ef7, 0x13ff5f8a0d5f9ef7, 0x13ff5f8a0d5f9ef7,
		0x13ff5f8a0d5f9ef7, 0xdc0ff566d8ba76fb, 0xe4b7bf4dcdd23297, 0xe4b7bf4dcdd23297, 0xe4b7bf4dcdd23297,
	},
	"embed16/linf/f32=false": {
		0xaaac6232935f518e, 0xbdb89a629b0389e2, 0x295c51e890dec616, 0x82505235b65b4e31, 0xff35e3856de5eb64,
		0x72531d2537f40cd1, 0x9c78aec8362cc543, 0x2d0dbefc50b30724, 0x2d0dbefc50b30724, 0x2d0dbefc50b30724,
		0x2d0dbefc50b30724, 0x2d0dbefc50b30724, 0x30c20afa46105ee2, 0x30c20afa46105ee2, 0x30c20afa46105ee2,
	},
	"embed16/linf/f32=true": {
		0x7c9004a55b436c5d, 0x7335667b58de7b37, 0x295c51e890dec616, 0x82505235b65b4e31, 0xff35e3856de5eb64,
		0xb6d0239c134038e2, 0xc1ddefea77bb21ad, 0x2d0dbefc50b30724, 0x2d0dbefc50b30724, 0x2d0dbefc50b30724,
		0x2d0dbefc50b30724, 0x3a7f1376f5b4302e, 0x4565fd08ea4c99c9, 0x4565fd08ea4c99c9, 0x4565fd08ea4c99c9,
	},
	"embed16/angular/f32=false": {
		0xf68f146d23f851c6, 0x42dade1c6b0525fd, 0x4c5ee15fd2754985, 0x28385c95d1a8968b, 0xc5e140a05a199e8b,
		0x4d161271b3df19d7, 0x6c0722162733f095, 0x0a64421bae47b671, 0x0a64421bae47b671, 0x0a64421bae47b671,
		0x0a64421bae47b671, 0x0a64421bae47b671, 0x785cfe5fb5e03cb8, 0x785cfe5fb5e03cb8, 0x785cfe5fb5e03cb8,
	},
	"embed16/angular/f32=true": {
		0x98b6642199c201e1, 0x66e60e5fdbe06de4, 0x4c5ee15fd2754985, 0x7817c10fee3274c9, 0xc5e140a05a199e8b,
		0x4d161271b3df19d7, 0xaf70d2ebc1a159e4, 0x0a64421bae47b671, 0x0a64421bae47b671, 0x0a64421bae47b671,
		0x0a64421bae47b671, 0xea9ea986ba514912, 0xda60b82e222530bf, 0xda60b82e222530bf, 0xda60b82e222530bf,
	},
}

// TestGoldenTraversals pins, byte for byte, the output of every k-d tree
// query family and every MST driver on all five metrics in float64 and
// float32: core distances, k-NN ids and distance bits, sorted range ids,
// range counts at two radii, the tombstoned coordinate queries, the EMST
// edge lists of all five WSPD/Borůvka drivers and the HDBSCAN* MSTs of all
// three variants. The oracles compare MST weights and merge heights only,
// so these fingerprints are what catch a traversal that visits points in a
// different order and resolves a tie between equal distances differently.
func TestGoldenTraversals(t *testing.T) {
	geo := geometry.NewPoints(0, 3)
	for b := int64(0); b < 8; b++ {
		blk := generator.GeoLifeLike(125, 200+b)
		geo.Data = append(geo.Data, blk.Data...)
		geo.N += blk.N
	}
	inputs := []struct {
		name string
		pts  geometry.Points
	}{
		{"geo3d", geo},
		{"embed16", generator.Embed(300, 16, 8, 9)},
	}
	var got []string
	for _, in := range inputs {
		for _, m := range metric.All() {
			for _, f32 := range []bool{false, true} {
				key := fmt.Sprintf("%s/%s/f32=%v", in.name, m.Name(), f32)
				fp := goldenFingerprints(t, in.pts, m, f32)
				want, ok := goldenTraversals[key]
				for i, v := range fp {
					if !ok || v != want[i] {
						t.Errorf("%s/%s: fingerprint %#x, want %#x", key, goldenOutputs[i], v, want[i])
					}
				}
				got = append(got, goldenRow(key, fp))
			}
		}
	}
	if t.Failed() {
		t.Logf("fingerprints of this build:\n%s", strings.Join(got, ""))
	}
}

func goldenRow(key string, fp [len(goldenOutputs)]uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\t%q: {", key)
	for i, v := range fp {
		if i%5 == 0 {
			b.WriteString("\n\t\t")
		} else {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%#016x,", v)
	}
	b.WriteString("\n\t},\n")
	return b.String()
}

// goldenFingerprints runs every fingerprinted output of one configuration
// through a fresh engine, the way an Index runs them.
func goldenFingerprints(t *testing.T, pts geometry.Points, m metric.Metric, f32 bool) [len(goldenOutputs)]uint64 {
	t.Helper()
	if _, ok := m.(metric.Angular); ok {
		var err error
		if pts, err = metric.NormalizeRows(pts); err != nil {
			t.Fatal(err)
		}
	}
	e := New(pts, m)
	if f32 {
		if err := e.EnableFloat32(); err != nil {
			t.Fatal(err)
		}
	}
	tr := testTree(e)
	n := pts.N
	const minPts, k = 10, 8
	cd, err := e.CoreDist(context.Background(), minPts)
	if err != nil {
		t.Fatal(err)
	}
	// Radii from the data's own scale: the median core distance, and a
	// radius large enough that range counts take whole subtrees at once.
	sorted := slices.Sorted(slices.Values(cd))
	r1, r2 := sorted[n/2], sorted[n-1]
	tomb := make([]bool, n)
	for i := range tomb {
		tomb[i] = i%3 == 1
	}

	var fp [len(goldenOutputs)]uint64
	hs := make([]fpHash, len(goldenOutputs))
	for i := range hs {
		hs[i] = fpHash{h: fnv.New64a()}
	}
	for _, c := range cd {
		hs[0].f64(c)
	}
	var ws kdtree.KNNWorkspace
	var buf []int32
	for q := int32(0); q < int32(n); q++ {
		for _, nb := range tr.KNNInto(q, k, &ws) {
			hs[1].i32(nb.Idx)
			hs[1].f64(nb.Dist)
		}
		buf = tr.RangeQueryAppend(q, r1, buf[:0])
		hs[2].ids(buf)
		hs[3].i32(int32(tr.RangeCount(q, r1)))
		hs[3].i32(int32(tr.RangeCount(q, r2)))

		qc := pts.At(int(q))
		for _, nb := range tr.KNNLiveInto(qc, k, tomb, &ws) {
			hs[4].i32(nb.Idx)
			hs[4].f64(nb.Dist)
		}
		buf = tr.RangeQueryLiveAppend(qc, r1, tomb, buf[:0])
		hs[5].ids(buf)
		hs[6].i32(int32(tr.RangeCountLive(qc, r1, tomb)))
		hs[6].i32(int32(tr.RangeCountLive(qc, r2, tomb)))
	}
	for i, algo := range []EMSTAlgo{EMSTMemoGFK, EMSTGFK, EMSTNaive, EMSTWSPDBoruvka, EMSTBoruvka} {
		hs[7+i].edges(testEMST(e, algo))
	}
	for i, algo := range []hdbscan.Algorithm{hdbscan.MemoGFK, hdbscan.GanTao, hdbscan.GanTaoFull} {
		edges, _ := testHDB(e, minPts, algo)
		hs[12+i].edges(edges)
	}
	for i := range hs {
		fp[i] = hs[i].h.Sum64()
	}
	return fp
}

// fpHash feeds fixed-width little-endian values into an FNV-64a hash.
type fpHash struct {
	h interface {
		Write([]byte) (int, error)
		Sum64() uint64
	}
	b [8]byte
}

func (f *fpHash) i32(v int32) {
	binary.LittleEndian.PutUint32(f.b[:4], uint32(v))
	f.h.Write(f.b[:4])
}

func (f *fpHash) f64(v float64) {
	binary.LittleEndian.PutUint64(f.b[:], math.Float64bits(v))
	f.h.Write(f.b[:])
}

// ids hashes a length-prefixed, sorted copy of an id set.
func (f *fpHash) ids(ids []int32) {
	f.i32(int32(len(ids)))
	slices.Sort(ids)
	for _, id := range ids {
		f.i32(id)
	}
}

// edges hashes an edge list's order, endpoints and weight bits.
func (f *fpHash) edges(edges []mst.Edge) {
	f.i32(int32(len(edges)))
	for _, e := range edges {
		f.i32(e.U)
		f.i32(e.V)
		f.f64(e.W)
	}
}
