package daemon

import (
	"encoding/json"
	"errors"
	"net/http"

	"parclust"
)

// Incremental-update endpoints: POST /v1/datasets/{name}/points inserts
// rows into a live dataset, DELETE removes points by external id. Both
// mutate the Index in place through its dynamic layer — no re-upload, no
// full rebuild — then re-charge the registry with the new footprint.
//
// Every query (serveQuery and the sweep) guards against the race these
// endpoints introduce: it captures the dataset's mutation epoch after
// pinning the dataset and answers 409 Conflict when the epoch moved before
// its response was written, so a client never receives a payload computed
// against state a concurrent mutation invalidated mid-flight.

// queryDone finalizes a query handler's compute phase. It answers 409
// Conflict when a mutation raced the query (the epoch moved past the value
// captured at admission), maps err to its usual response otherwise, and
// reports whether the handler may proceed to write its 200 payload.
func (s *Server) queryDone(w http.ResponseWriter, r *http.Request, d *dataset, epoch uint64, err error) bool {
	if r.Context().Err() == nil && d.idx.MutationEpoch() != epoch {
		s.conflicts.Add(1)
		writeError(w, http.StatusConflict, "dataset %q mutated during query; retry", d.name)
		return false
	}
	if err != nil {
		s.queryError(w, r, err)
		return false
	}
	return true
}

// insertRequest is the JSON body of POST /v1/datasets/{name}/points;
// readPoints parses it, or CSV/whitespace rows, exactly as for an upload.
type insertRequest struct {
	Points [][]float64 `json:"points"`
}

func (s *Server) handleInsertPoints(w http.ResponseWriter, r *http.Request) {
	d, release, ok := s.acquire(w, r)
	if !ok {
		return
	}
	defer release()
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	defer body.Close()

	var req insertRequest
	pts, ok := readPoints(w, r, body, d.name, "insert", &req, &req.Points)
	if !ok {
		return
	}
	ids, err := d.idx.Insert(pts)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mutations.Add(1)
	s.reg.Recharge(d.name, d.idx.ApproxBytes())
	writeJSON(w, http.StatusOK, map[string]any{
		"dataset": d.name,
		"ids":     ids,
		"n":       d.idx.N(),
	})
}

// deleteRequest is the JSON body of DELETE /v1/datasets/{name}/points.
type deleteRequest struct {
	IDs []int64 `json:"ids"`
}

func (s *Server) handleDeletePoints(w http.ResponseWriter, r *http.Request) {
	d, release, ok := s.acquire(w, r)
	if !ok {
		return
	}
	defer release()
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	defer body.Close()

	var req deleteRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, uploadErrCode(err), "decode ids: %v", err)
		return
	}
	if len(req.IDs) == 0 {
		writeError(w, http.StatusBadRequest, "no ids in delete")
		return
	}
	if err := d.idx.Delete(req.IDs); err != nil {
		// Unknown-id batches are all-or-nothing: the dataset is unchanged.
		if errors.Is(err, parclust.ErrUnknownID) {
			writeError(w, http.StatusNotFound, "%v", err)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mutations.Add(1)
	s.reg.Recharge(d.name, d.idx.ApproxBytes())
	writeJSON(w, http.StatusOK, map[string]any{
		"dataset": d.name,
		"deleted": len(req.IDs),
		"n":       d.idx.N(),
	})
}
