package daemon

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"parclust"
)

// FuzzParseSweep fuzzes the sweep-request parser: whatever the body, an
// accepted request must come out with both axes non-empty, deduplicated,
// in-range, and under the cell cap, and must survive a marshal/re-parse
// round trip unchanged.
func FuzzParseSweep(f *testing.F) {
	seeds := []string{
		`{"minpts":[3,5,7],"eps":[0.25,0.5,1.0,2.0,4.0]}`,
		`{"minpts":[1],"eps":[0]}`,
		`{"minpts":[3,3,3],"eps":[1,1,1]}`,
		`{"minpts":[2],"eps":[0.5],"algo":"gantao","labels":true}`,
		`{"minpts":[],"eps":[1]}`,
		`{"minpts":[3],"eps":[]}`,
		`{"minpts":[0],"eps":[1]}`,
		`{"minpts":[-1],"eps":[1]}`,
		`{"minpts":[3],"eps":[-0.5]}`,
		`{"minpts":[3],"eps":[1e999]}`,
		`{"minpts":[3],"eps":[1],"algo":"kmeans"}`,
		`{"minpts":[3],"eps":[1],"bogus":true}`,
		`{"minpts":[3],"eps":[1]} trailing`,
		`{"minpts":[1,2,3,4,5,6,7,8,9,10],"eps":[1,2,3,4,5,6,7,8,9,10]}`,
		`not json at all`,
		``,
		`null`,
		`{"minpts":[9007199254740993],"eps":[1]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s), 64)
	}
	f.Fuzz(func(t *testing.T, data []byte, maxCells int) {
		if maxCells < 1 || maxCells > 1<<20 {
			maxCells = 64
		}
		req, err := parseSweep(data, maxCells)
		if err != nil {
			return
		}
		if len(req.MinPts) == 0 || len(req.Eps) == 0 {
			t.Fatalf("accepted request with empty axis: %+v", req)
		}
		if int64(len(req.MinPts))*int64(len(req.Eps)) > int64(maxCells) {
			t.Fatalf("accepted %dx%d grid over the %d-cell cap", len(req.MinPts), len(req.Eps), maxCells)
		}
		seenM := map[int]bool{}
		for _, mp := range req.MinPts {
			if mp < 1 {
				t.Fatalf("accepted minpts %d", mp)
			}
			if seenM[mp] {
				t.Fatalf("duplicate minpts %d survived dedup: %v", mp, req.MinPts)
			}
			seenM[mp] = true
		}
		seenE := map[float64]bool{}
		for _, e := range req.Eps {
			if math.IsNaN(e) || math.IsInf(e, 0) || e < 0 {
				t.Fatalf("accepted eps %v", e)
			}
			if seenE[e] {
				t.Fatalf("duplicate eps %v survived dedup: %v", e, req.Eps)
			}
			seenE[e] = true
		}
		// A validated request is a fixed point: re-marshaling and
		// re-parsing must accept it and preserve both axes.
		round, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshal accepted request: %v", err)
		}
		req2, err := parseSweep(round, maxCells)
		if err != nil {
			t.Fatalf("re-parse of accepted request %s failed: %v", round, err)
		}
		if len(req2.MinPts) != len(req.MinPts) || len(req2.Eps) != len(req.Eps) {
			t.Fatalf("round trip changed the grid: %+v -> %+v", req, req2)
		}
	})
}

// FuzzArrayItems pins the array item appenders to encoding/json: for every
// int32 and every finite float64 bit pattern, appendInt, appendFloat,
// appendEdge and appendBar write what json.Marshal writes for the same
// value in its wire shape (int32, float64, edgeJSON, opticsBar; an OPTICS
// reachability of +Inf is null).
func FuzzArrayItems(f *testing.F) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1.5, 0.1, 123456789.125,
		1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0),
		5e-324, 2.2250738585072009e-308, // the smallest and largest subnormals
		math.MaxFloat64, -math.MaxFloat64,
		1e-7, -2.5e-9, 3e-100, // e-0x exponents, and one without a zero
		math.Inf(1),
	}
	ints := []int32{0, -1, 7, 123456, math.MaxInt32, math.MinInt32}
	for i, x := range floats {
		f.Add(math.Float64bits(x), ints[i%len(ints)])
	}
	for _, n := range ints {
		f.Add(math.Float64bits(0.5), n)
	}
	f.Fuzz(func(t *testing.T, bits uint64, n int32) {
		same := func(what string, got []byte, v any) {
			t.Helper()
			want, err := json.Marshal(v)
			if err != nil {
				t.Fatalf("%s: json.Marshal(%v): %v", what, v, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: wrote %s, encoding/json writes %s", what, got, want)
			}
		}
		same("appendInt", appendInt(nil, n), n)
		x := math.Float64frombits(bits)
		if math.IsNaN(x) || math.IsInf(x, -1) {
			return // no distance takes these values
		}
		bar := opticsBar{ID: n}
		if !math.IsInf(x, 1) {
			bar.Reachability = &x
		}
		same("appendBar", appendBar(nil, parclust.OPTICSEntry{Idx: n, Reachability: x}), bar)
		if math.IsInf(x, 1) {
			return
		}
		same("appendFloat", appendFloat(nil, x), x)
		same("appendEdge", appendEdge(nil, parclust.Edge{U: n, V: ^n, W: x}), edgeJSON{U: n, V: ^n, W: x})
	})
}
