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
	inputs := goldenInputs()
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
		"geolife/emst/f32=true":     {23528, 19845, 3250, 4},
		"geolife/hdbscan/f32=true":  {28021, 19065, 4265, 4},
		"embed16/emst/f32=false":    {120701, 84846, 268217, 7},
		"embed16/hdbscan/f32=false": {132679, 105923, 285029, 7},
		"embed16/emst/f32=true":     {35471, 21193, 1995, 2},
		"embed16/hdbscan/f32=true":  {49351, 37803, 2167, 2},
	}
	for _, name := range []string{"geolife", "embed16"} {
		for _, f32 := range []bool{false, true} {
			se, sh := NewStats(), NewStats()
			emst, hdb := goldenRuns(t, inputs[name], f32, false, se, sh)
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

// goldenInputs returns the two inputs of the MemoGFK goldens: an 8-region
// GeoLife-like mix and a 16D embedding set.
func goldenInputs() map[string]geometry.Points {
	geoLife := geometry.NewPoints(0, 3)
	for b := int64(0); b < 8; b++ {
		blk := generator.GeoLifeLike(500, 100+b)
		geoLife.Data = append(geoLife.Data, blk.Data...)
		geoLife.N += blk.N
	}
	return map[string]geometry.Points{
		"geolife": geoLife,
		"embed16": generator.Embed(2000, 16, 16, 7),
	}
}

// goldenRuns runs MemoGFK for the EMST and for the HDBSCAN* MST (minPts
// 10) of pts, on a float32 tree if f32, under the linear beta schedule if
// linear, recording into se and sh.
func goldenRuns(t *testing.T, pts geometry.Points, f32, linear bool, se, sh *Stats) (emst, hdb []Edge) {
	t.Helper()
	tr := kdtree.BuildMetric(pts, 1, metric.L2{})
	if f32 {
		if err := tr.EnableFloat32(); err != nil {
			t.Fatal(err)
		}
	}
	emst = MemoGFK(Config{Tree: tr, Metric: kdtree.NewEuclidean(tr), Sep: wspd.Geometric{S: 2}, Stats: se, LinearBeta: linear})
	tr.AnnotateCoreDists(tr.CoreDistances(10))
	hdb = MemoGFK(Config{Tree: tr, Metric: kdtree.NewMutualReachability(tr), Sep: wspd.MutualUnreachable{}, Stats: sh, LinearBeta: linear})
	return emst, hdb
}

// TestMemoGFKScheduleIndependent runs the golden inputs under the doubling
// and the linear beta schedules, in float64 and float32, and requires the
// same EMST and HDBSCAN* edge fingerprints. The schedule decides only
// where the rounds' windows end, so beta's starting value on float32 trees
// (bruteSize, not 2) is free to change too, as long as no two edges of
// equal emitted weight fall on either side of a window end.
func TestMemoGFKScheduleIndependent(t *testing.T) {
	for name, pts := range goldenInputs() {
		for _, f32 := range []bool{false, true} {
			sd, sl := NewStats(), NewStats()
			de, dh := goldenRuns(t, pts, f32, false, sd, NewStats())
			le, lh := goldenRuns(t, pts, f32, true, sl, NewStats())
			if sl.Rounds <= sd.Rounds {
				t.Errorf("%s f32=%v: the linear schedule ran %d EMST rounds, doubling %d", name, f32, sl.Rounds, sd.Rounds)
			}
			t.Logf("%s f32=%v: %d EMST rounds doubling, %d linear", name, f32, sd.Rounds, sl.Rounds)
			for kind, pair := range map[string][2][]Edge{"emst": {de, le}, "hdbscan": {dh, lh}} {
				if d, l := edgeFingerprint(pair[0]), edgeFingerprint(pair[1]); d != l {
					t.Errorf("%s/%s/f32=%v: fingerprint %#x under doubling, %#x under linear", name, kind, f32, d, l)
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
