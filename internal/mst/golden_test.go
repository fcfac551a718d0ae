package mst

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"parclust/internal/generator"
	"parclust/internal/geometry"
	"parclust/internal/kdtree"
	"parclust/internal/metric"
	"parclust/internal/wspd"
)

// TestMemoGFKGoldenEdges pins the exact MemoGFK edge lists (endpoints,
// weight bits and acceptance order) for HDBSCAN* (minPts=10) and EMST, in
// float64 and float32, on two fixed inputs: an 8-region GeoLife-like mix
// and a 16D embedding set. The oracle sweeps compare only weights and
// merge heights, so these fingerprints are what catch a change in which of
// several equal-weight edges the MST keeps; a refactor of the traversals
// or of Kruskal must leave them unchanged. The run's work counters (pairs
// materialized, peak pairs resident, BCCP calls, rounds) are pinned too, so
// a change to how the traversals count work must count the same work.
func TestMemoGFKGoldenEdges(t *testing.T) {
	geoLife := geometry.NewPoints(0, 3)
	for b := int64(0); b < 8; b++ {
		blk := generator.GeoLifeLike(500, 100+b)
		geoLife.Data = append(geoLife.Data, blk.Data...)
		geoLife.N += blk.N
	}
	inputs := map[string]geometry.Points{
		"geolife": geoLife,
		"embed16": generator.Embed(2000, 16, 16, 7),
	}
	want := map[string]uint64{
		"geolife/emst/f32=false":    0x979b4f21b63b0bb7,
		"geolife/hdbscan/f32=false": 0x7873deab21234d7b,
		"geolife/emst/f32=true":     0x979b4f21b63b0bb7,
		"geolife/hdbscan/f32=true":  0x33c8129daaa476f5,
		"embed16/emst/f32=false":    0xe6d7335b33886ae9,
		"embed16/hdbscan/f32=false": 0x2fafc8dad2b44a77,
		"embed16/emst/f32=true":     0xe6d7335b33886ae9,
		"embed16/hdbscan/f32=true":  0x48277dd7b92ab021,
	}
	counts := map[string][4]int64{
		"geolife/emst/f32=false":    {26318, 10877, 28226, 9},
		"geolife/hdbscan/f32=false": {36819, 13294, 39279, 9},
		"geolife/emst/f32=true":     {158984, 87669, 3223, 9},
		"geolife/hdbscan/f32=true":  {229484, 121314, 4269, 9},
		"embed16/emst/f32=false":    {120701, 84846, 268217, 7},
		"embed16/hdbscan/f32=false": {132679, 105923, 285029, 7},
		"embed16/emst/f32=true":     {178641, 139329, 1934, 7},
		"embed16/hdbscan/f32=true":  {209923, 177293, 2155, 7},
	}
	for _, name := range []string{"geolife", "embed16"} {
		for _, f32 := range []bool{false, true} {
			tr := kdtree.BuildMetric(inputs[name], 1, metric.L2{})
			if f32 {
				if err := tr.EnableFloat32(); err != nil {
					t.Fatal(err)
				}
			}
			se, sh := NewStats(), NewStats()
			emst := MemoGFK(Config{Tree: tr, Metric: kdtree.NewEuclidean(tr), Sep: wspd.Geometric{S: 2}, Stats: se})
			tr.AnnotateCoreDists(tr.CoreDistances(10))
			hdb := MemoGFK(Config{Tree: tr, Metric: kdtree.NewMutualReachability(tr), Sep: wspd.MutualUnreachable{}, Stats: sh})
			for kind, edges := range map[string][]Edge{"emst": emst, "hdbscan": hdb} {
				key := fmt.Sprintf("%s/%s/f32=%v", name, kind, f32)
				checkSpanningTree(t, inputs[name].N, edges)
				if got := edgeFingerprint(edges); got != want[key] {
					t.Errorf("%s: edge fingerprint %#x, want %#x", key, got, want[key])
				}
				s := se
				if kind == "hdbscan" {
					s = sh
				}
				if got := [4]int64{s.PairsMaterialized, s.PeakPairsResident, s.BCCPComputed, s.Rounds}; got != counts[key] {
					t.Errorf("%s: counters (pairs, peak, bccp, rounds) %v, want %v", key, got, counts[key])
				}
			}
		}
	}
}

// edgeFingerprint is the FNV-64a hash of an edge list's order, endpoints
// and weight bits.
func edgeFingerprint(edges []Edge) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for _, e := range edges {
		binary.LittleEndian.PutUint32(buf[0:], uint32(e.U))
		binary.LittleEndian.PutUint32(buf[4:], uint32(e.V))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(e.W))
		h.Write(buf[:])
	}
	return h.Sum64()
}
