package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"

	"parclust"
)

// POST /v1/datasets/{name}/sweep runs a full minpts x eps parameter grid
// against one warm Index in a single request. The stage pipeline makes the
// grid cheap: the k-d tree is shared by every cell, each distinct minPts
// costs one coreDist + one MST + one dendrogram build, and each distinct
// eps within a minPts costs one flat cut (cached thereafter) — a |M| x |E|
// grid runs 1 tree + |M| coreDist + |M| MST builds, not |M| x |E| full
// pipelines. Compare a client-side loop over /hdbscan: same stage reuse,
// but |M| x |E| HTTP round-trips and |M| x |E| response documents.

// maxSweepBodyBytes caps a sweep request body; grids are tiny, so anything
// beyond 1 MiB is garbage.
const maxSweepBodyBytes = 1 << 20

// sweepRequest is the POST body: the grid axes plus per-cell options.
type sweepRequest struct {
	// MinPts is the density axis; every value costs one coreDist + MST +
	// dendrogram build on a cold Index (amortized across its eps row).
	MinPts []int `json:"minpts"`
	// Eps is the radius axis; every (minpts, eps) cell is one flat cut.
	Eps []float64 `json:"eps"`
	// Algo selects the HDBSCAN MST algorithm ("" = memogfk).
	Algo string `json:"algo"`
	// Labels includes the full per-point label array in every cell record
	// (default false: sweeps are usually parameter scans reading only the
	// cluster/noise counts).
	Labels bool `json:"labels"`
}

// sweepCell is one grid cell's result.
type sweepCell struct {
	MinPts      int     `json:"minpts"`
	Eps         float64 `json:"eps"`
	NumClusters int     `json:"num_clusters"`
	NumNoise    int     `json:"num_noise"`
	Labels      []int32 `json:"labels,omitempty"`
}

// sweepResult is the buffered response document; Cells is the omitted
// array field in a streamed header, where each cell instead arrives as its
// own NDJSON record.
type sweepResult struct {
	Dataset  string      `json:"dataset"`
	Algo     string      `json:"algo"`
	NumCells int         `json:"num_cells"`
	Cells    []sweepCell `json:"cells,omitempty"`
}

// parseSweep decodes and validates a sweep request body. It is strict —
// unknown fields, trailing data, empty axes, minpts < 1, and non-finite or
// negative eps are all errors — and it deduplicates both axes preserving
// first-occurrence order, so the grid a handler iterates is exactly the
// distinct cells. This is the fuzz target for the endpoint's parser.
func parseSweep(data []byte, maxCells int) (sweepRequest, error) {
	var req sweepRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return sweepRequest{}, fmt.Errorf("decode sweep request: %v", err)
	}
	if dec.More() {
		return sweepRequest{}, fmt.Errorf("trailing data after sweep request body")
	}
	if len(req.MinPts) == 0 {
		return sweepRequest{}, fmt.Errorf("minpts grid is empty")
	}
	if len(req.Eps) == 0 {
		return sweepRequest{}, fmt.Errorf("eps grid is empty")
	}
	if _, err := parseHDBSCANAlgo(req.Algo); err != nil {
		return sweepRequest{}, err
	}
	minPts := req.MinPts[:0]
	seenM := make(map[int]bool, len(req.MinPts))
	for _, mp := range req.MinPts {
		if mp < 1 {
			return sweepRequest{}, fmt.Errorf("minpts must be >= 1, got %d", mp)
		}
		if !seenM[mp] {
			seenM[mp] = true
			minPts = append(minPts, mp)
		}
	}
	eps := req.Eps[:0]
	seenE := make(map[float64]bool, len(req.Eps))
	for _, e := range req.Eps {
		if math.IsNaN(e) || math.IsInf(e, 0) || e < 0 {
			return sweepRequest{}, fmt.Errorf("eps must be finite and >= 0, got %v", e)
		}
		if !seenE[e] {
			seenE[e] = true
			eps = append(eps, e)
		}
	}
	req.MinPts, req.Eps = minPts, eps
	// Both axis lengths are bounded by the body size, so the product fits
	// in int64 even before the cap check.
	if cells := int64(len(minPts)) * int64(len(eps)); cells > int64(maxCells) {
		return sweepRequest{}, fmt.Errorf("grid of %d cells exceeds the %d-cell limit", cells, maxCells)
	}
	return req, nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	d, release, ok := s.acquire(w, r)
	if !ok {
		return
	}
	defer release()
	epoch := d.idx.MutationEpoch()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSweepBodyBytes))
	if err != nil {
		writeError(w, uploadErrCode(err), "read sweep request: %v", err)
		return
	}
	req, err := parseSweep(body, s.cfg.MaxSweepCells)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	algo, _ := parseHDBSCANAlgo(req.Algo)
	// Validate the whole grid against the dataset before the first byte
	// goes out: once a stream has committed its 200 there is no way to
	// report a bad cell other than truncation.
	for _, mp := range req.MinPts {
		if mp > d.idx.N() {
			writeError(w, http.StatusBadRequest, "minpts=%d exceeds dataset size %d", mp, d.idx.N())
			return
		}
	}
	if ctxDone(r) {
		return
	}

	idx := d.idx.WithContext(r.Context())
	res := sweepResult{
		Dataset:  d.name,
		Algo:     algo.String(),
		NumCells: len(req.MinPts) * len(req.Eps),
	}
	cellAt := func(hier *parclust.Hierarchy, mp int, eps float64) sweepCell {
		c := hier.ClustersAt(eps)
		cell := sweepCell{
			MinPts: mp, Eps: eps,
			NumClusters: c.NumClusters,
			NumNoise:    hier.NumNoiseAt(eps),
		}
		if req.Labels {
			cell.Labels = c.Labels
		}
		return cell
	}
	if wantsNDJSON(r) {
		// The stream is about to commit its 200; a mutation that already
		// raced in answers 409 while that is still possible. Mutations
		// landing after this point truncate the stream below.
		if !s.queryDone(w, r, d, epoch, nil) {
			return
		}
		sw := newStreamWriter(w, r)
		if !sw.write(res) {
			return
		}
	row:
		for _, mp := range req.MinPts {
			hier, err := idx.HDBSCANWithAlgorithm(mp, algo)
			if err != nil || d.idx.MutationEpoch() != epoch {
				// A cancelled/expired context, a shed cold build, or a
				// mutation racing the sweep; the stream has committed its
				// 200, so a truncated stream (no trailer) is the only
				// honest answer.
				return
			}
			for _, eps := range req.Eps {
				if !sw.write(cellAt(hier, mp, eps)) {
					break row
				}
				sw.items++
			}
		}
		if sw.err == nil {
			sw.finish()
		}
	} else {
		res.Cells = make([]sweepCell, 0, res.NumCells)
		for _, mp := range req.MinPts {
			if ctxDone(r) {
				return
			}
			hier, err := idx.HDBSCANWithAlgorithm(mp, algo)
			if !s.queryDone(w, r, d, epoch, err) {
				return
			}
			for _, eps := range req.Eps {
				res.Cells = append(res.Cells, cellAt(hier, mp, eps))
			}
		}
		if ctxDone(r) {
			return
		}
		if !s.queryDone(w, r, d, epoch, nil) {
			return
		}
		writeJSON(w, http.StatusOK, res)
	}
	// The sweep grew the Index's cut-result caches; re-charge the registry
	// so occupancy accounting tracks the real footprint.
	s.reg.Recharge(d.name, d.idx.ApproxBytes())
}
