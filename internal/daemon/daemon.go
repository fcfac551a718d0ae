// Package daemon implements the parclustd HTTP/JSON serving layer: named
// datasets are uploaded into a memory-budgeted LRU registry of parclust
// Indexes, and every clustering query is answered from the memoized stage
// pipeline behind the dataset's Index. Concurrent cold queries for the
// same stage coalesce into one build (the engine's singleflight), warm
// queries run lock-free, and evicting a dataset never frees it out from
// under an in-flight query (the registry's ref-counted deferred release).
//
// The handler tree (all responses application/json):
//
//	GET    /healthz                       liveness probe
//	GET    /v1/datasets                   list datasets + registry occupancy
//	PUT    /v1/datasets/{name}            upload (JSON {"points":[[...]]} or CSV body)
//	POST   /v1/datasets/{name}            alias for PUT
//	GET    /v1/datasets/{name}            one dataset's info + stage counters
//	DELETE /v1/datasets/{name}            evict
//	GET    /v1/datasets/{name}/hdbscan    ?minpts=&eps= | &minclustersize=  [&algo=&labels=false]
//	GET    /v1/datasets/{name}/dbscan     ?minpts=&eps=  [&star=true&labels=false]
//	GET    /v1/datasets/{name}/optics     ?minpts=  [&eps=]
//	GET    /v1/datasets/{name}/emst       [?algo=&edges=false]
//	GET    /v1/datasets/{name}/knn        ?q=&k=
//	GET    /v1/datasets/{name}/range      ?q=&r=  [&ids=false]
//	POST   /v1/datasets/{name}/sweep      {"minpts":[...],"eps":[...]} full parameter grid
//	POST   /v1/datasets/{name}/points     insert rows (JSON {"points":[[...]]} or CSV body)
//	DELETE /v1/datasets/{name}/points     delete points by external id ({"ids":[...]})
//	GET    /v1/broadcast/hdbscan          ?minpts=&eps=   fan-out across all datasets
//	GET    /v1/stats                      engine counters per dataset + registry occupancy
//
// The label-, edge-, and reachability-producing endpoints (hdbscan,
// dbscan, optics, emst, sweep) additionally stream their response as
// chunked NDJSON when the request carries "Accept: application/x-ndjson";
// the buffered JSON document stays the default.
//
// An hdbscan, dbscan, optics or emst answer is a head document plus one
// large array (labels, edges or order), and both wire forms are written
// from one description of that array. The buffered document is the head
// with the array spliced in; the stream is the head line, chunk records of
// the array's items, and a trailer. The array is always the document's
// last field and is left out when empty, so both forms equal what
// encoding/json writes for the whole document. The items themselves are
// appended under encoding/json's number rules, not reflected over: cut
// labels below 1,000 from a digit-pair table, every other number with
// strconv. See stream.go for the record protocol.
//
// The six per-dataset GET queries run through one pipeline (serveQuery),
// in one order: pin the dataset (404) and capture its mutation epoch;
// validate every parameter, answering 400 before any stage work; run the
// query under the request context; answer 409 if a mutation raced it;
// then encode buffered JSON or NDJSON. A float the response echoes must be
// finite, since JSON has no NaN or ±Inf: hdbscan and dbscan eps, range r
// and broadcast eps answer 400 otherwise, while optics, which echoes no
// eps, accepts eps=inf. A document encoding/json rejects answers 500
// before any byte of it is sent. A knn k above the dataset's point count
// returns every point, and optics, like hdbscan, answers 400 for a minpts
// above it.
//
// Uploads and inserts answer 400 for a non-finite coordinate and for one
// whose magnitude exceeds the metric's bound, past which a distance
// overflows: metric.MaxAbsCoord64 under l2 and sql2 (about 2.4e153 in two
// dimensions), MaxFloat64/(8·dim) under l1 and MaxFloat64/8 under linf.
// The bound covers the distance kernels, not the incircle predicates of
// emst?algo=delaunay2d, which overflow from an extent near 1e77.
//
// With Config.DataDir set, the server keeps a persistent stage store
// (internal/store): uploads persist a snapshot, memory-pressure evictions
// spill the warm stage set to disk, and queries against non-resident
// datasets lazily reload their snapshot with zero stage rebuilds. See
// persist.go for the load/spill machinery.
package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parclust"
	"parclust/internal/dataio"
	"parclust/internal/engine"
	"parclust/internal/registry"
	"parclust/internal/store"
)

// Config sizes a Server.
type Config struct {
	// MaxBytes is the registry memory budget for admitted datasets
	// (estimated via Index.ApproxBytes); <= 0 disables the budget.
	MaxBytes int64
	// MaxUploadBytes caps one upload request body (<= 0: 1 GiB).
	MaxUploadBytes int64
	// MaxSweepCells caps the minpts x eps grid size one sweep request may
	// ask for (<= 0: 10000).
	MaxSweepCells int
	// DataDir, when non-empty, enables the persistent stage store: uploads
	// write snapshots there, a dataset the registry evicts under byte
	// pressure spills its warm snapshot there first, so its memoized stages
	// survive the eviction, and queries against a non-resident dataset
	// lazily reload its snapshot instead of 404ing.
	DataDir string
	// QueryTimeout bounds one dataset query (including any cold stage
	// builds it triggers); an expired query answers 504. <= 0 disables.
	QueryTimeout time.Duration
	// RateQPS enables the per-tenant token-bucket rate limiter: each tenant
	// (X-Tenant header, else the remote host) gets RateQPS requests/second
	// with bursts of RateBurst (<= 0: ceil(RateQPS)). Excess requests
	// answer 429 with Retry-After. <= 0 disables.
	RateQPS   float64
	RateBurst int
	// MaxColdBuilds bounds concurrently-admitted cold stage builds across
	// all datasets; excess cold builds answer 503 with Retry-After while
	// warm (memoized) queries keep answering. <= 0 disables.
	MaxColdBuilds int
	// TenantMaxBytes caps the bytes the registry charges for one tenant's
	// resident datasets, growth from inserts and sweeps included; an
	// upload over quota answers 507 with Retry-After. <= 0 disables.
	TenantMaxBytes int64
}

// Server hosts the dataset registry behind the HTTP handler tree.
type Server struct {
	cfg Config
	reg *registry.Registry[*dataset]

	// st is the snapshot store, nil when Config.DataDir is empty. The
	// remaining fields are only used when st != nil.
	st      *store.Dir
	loadMu  sync.Mutex
	loading map[string]*loadFlight // per-name singleflight for cold loads

	spills    atomic.Int64 // pressure evictions persisted to disk
	loads     atomic.Int64 // snapshots reloaded into the registry
	loadFails atomic.Int64 // snapshots that existed but failed to decode

	// Overload protection (see robust.go). lim and buildSem are nil when
	// their Config fields are unset.
	lim      *limiter
	buildSem chan struct{}

	rateLimited   atomic.Int64 // requests shed by the rate limiter (429)
	overloaded    atomic.Int64 // cold builds shed by the build gate (503)
	timeouts      atomic.Int64 // queries past their deadline (504)
	quotaRejected atomic.Int64 // uploads over a tenant byte quota (507)
	mutations     atomic.Int64 // insert/delete batches applied (see mutate.go)
	conflicts     atomic.Int64 // queries answered 409 after racing a mutation
}

// dataset is one registry entry: a named Index, mutable through the
// incremental-update endpoints (see mutate.go). tenant is the uploader's
// identity for byte-quota accounting ("" for datasets loaded from
// snapshots, which predate or outlive any one tenant's session).
type dataset struct {
	name   string
	metric parclust.Metric
	idx    *parclust.Index
	tenant string
}

// New returns a Server with an empty registry. When cfg.DataDir is set the
// snapshot directory is created and snapshots already on disk become
// lazily loadable; New fails only on an unusable data dir.
func New(cfg Config) (*Server, error) {
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = 1 << 30
	}
	if cfg.MaxSweepCells <= 0 {
		cfg.MaxSweepCells = 10000
	}
	s := &Server{cfg: cfg, reg: registry.New[*dataset](cfg.MaxBytes)}
	if cfg.RateQPS > 0 {
		s.lim = newLimiter(cfg.RateQPS, cfg.RateBurst)
	}
	if cfg.MaxColdBuilds > 0 {
		s.buildSem = make(chan struct{}, cfg.MaxColdBuilds)
	}
	if cfg.DataDir != "" {
		st, err := store.OpenDir(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		s.st = st
		s.loading = make(map[string]*loadFlight)
		s.reg.OnRelease = s.onRelease
	}
	return s, nil
}

// Registry exposes the underlying dataset registry (occupancy stats,
// direct eviction) to embedding code such as cmd/parclustd and tests.
func (s *Server) Registry() *registry.Registry[*dataset] { return s.reg }

// Handler returns the daemon's HTTP handler tree.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/datasets", s.handleList)
	mux.HandleFunc("PUT /v1/datasets/{name}", s.handleUpload)
	mux.HandleFunc("POST /v1/datasets/{name}", s.handleUpload)
	mux.HandleFunc("GET /v1/datasets/{name}", s.handleInfo)
	mux.HandleFunc("DELETE /v1/datasets/{name}", s.handleEvict)
	mux.HandleFunc("GET /v1/datasets/{name}/hdbscan", s.serveQuery(parseHDBSCAN))
	mux.HandleFunc("GET /v1/datasets/{name}/dbscan", s.serveQuery(parseDBSCAN))
	mux.HandleFunc("GET /v1/datasets/{name}/optics", s.serveQuery(parseOPTICS))
	mux.HandleFunc("GET /v1/datasets/{name}/emst", s.serveQuery(parseEMST))
	mux.HandleFunc("GET /v1/datasets/{name}/knn", s.serveQuery(parseKNN))
	mux.HandleFunc("GET /v1/datasets/{name}/range", s.serveQuery(parseRange))
	mux.HandleFunc("POST /v1/datasets/{name}/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/datasets/{name}/points", s.handleInsertPoints)
	mux.HandleFunc("DELETE /v1/datasets/{name}/points", s.handleDeletePoints)
	mux.HandleFunc("GET /v1/broadcast/hdbscan", s.handleBroadcast)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return s.withRobustness(mux)
}

// ---------------------------------------------------------------- encoding

// writeJSON encodes v as the response document straight to the
// connection. A document encoding/json rejects, such as one holding a NaN
// or ±Inf float, answers 500 instead: encodeJSON writes nothing then, and
// headerWriter sends the status line only with the document's bytes.
func writeJSON(w http.ResponseWriter, code int, v any) {
	hw := &headerWriter{ResponseWriter: w, code: code}
	if err := encodeJSON(hw, v); err != nil && !hw.sent {
		writeError(w, http.StatusInternalServerError, "encode response: %v", err)
	}
}

// headerWriter sends the status line and the JSON content type on its
// first Write.
type headerWriter struct {
	http.ResponseWriter
	code int
	sent bool
}

func (h *headerWriter) Write(p []byte) (int, error) {
	if !h.sent {
		h.sent = true
		h.Header().Set("Content-Type", "application/json")
		h.WriteHeader(h.code)
	}
	return h.ResponseWriter.Write(p)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// countersJSON mirrors engine.Counters with wire names plus the coalesced
// total the 16-cold-clients test (and dashboards) key on.
type countersJSON struct {
	TreeBuilds          int64  `json:"tree_builds"`
	TreeHits            int64  `json:"tree_hits"`
	TreeCoalesced       int64  `json:"tree_coalesced"`
	CoreDistBuilds      int64  `json:"core_dist_builds"`
	CoreDistHits        int64  `json:"core_dist_hits"`
	CoreDistCoalesced   int64  `json:"core_dist_coalesced"`
	MSTBuilds           int64  `json:"mst_builds"`
	MSTHits             int64  `json:"mst_hits"`
	MSTCoalesced        int64  `json:"mst_coalesced"`
	DendrogramBuilds    int64  `json:"dendrogram_builds"`
	DendrogramHits      int64  `json:"dendrogram_hits"`
	DendrogramCoalesced int64  `json:"dendrogram_coalesced"`
	CutBuilds           int64  `json:"cut_builds"`
	CutHits             int64  `json:"cut_hits"`
	CoalescedTotal      int64  `json:"coalesced_total"`
	BuildAborts         int64  `json:"build_aborts"`
	BuildPanics         int64  `json:"build_panics"`
	TreePatches         int64  `json:"tree_patches"`
	Compactions         int64  `json:"compactions"`
	MutationEpoch       uint64 `json:"mutation_epoch"`
}

func toCountersJSON(c engine.Counters) countersJSON {
	return countersJSON{
		TreeBuilds:          c.TreeBuilds,
		TreeHits:            c.TreeHits,
		TreeCoalesced:       c.TreeCoalesced,
		CoreDistBuilds:      c.CoreDistBuilds,
		CoreDistHits:        c.CoreDistHits,
		CoreDistCoalesced:   c.CoreDistCoalesced,
		MSTBuilds:           c.MSTBuilds,
		MSTHits:             c.MSTHits,
		MSTCoalesced:        c.MSTCoalesced,
		DendrogramBuilds:    c.DendrogramBuilds,
		DendrogramHits:      c.DendrogramHits,
		DendrogramCoalesced: c.DendrogramCoalesced,
		CutBuilds:           c.CutBuilds,
		CutHits:             c.CutHits,
		CoalescedTotal:      c.Coalesced(),
		BuildAborts:         c.BuildAborts,
		BuildPanics:         c.BuildPanics,
		TreePatches:         c.TreePatches,
		Compactions:         c.Compactions,
		MutationEpoch:       c.MutationEpoch,
	}
}

type registryJSON struct {
	Datasets  int   `json:"datasets"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
	Evictions int64 `json:"evictions"`
}

func toRegistryJSON(s registry.Stats) registryJSON {
	return registryJSON{Datasets: s.Entries, Bytes: s.Bytes, MaxBytes: s.MaxBytes, Evictions: s.Evictions}
}

type datasetInfo struct {
	Name   string `json:"name"`
	N      int    `json:"n"`
	Dim    int    `json:"dim"`
	Metric string `json:"metric"`
	Dtype  string `json:"dtype,omitempty"`
	// Bytes is the registry's current charge; an upload response reports
	// the admitted size.
	Bytes int64 `json:"bytes"`
}

// infoOf describes d, reporting bytes as its size.
func infoOf(d *dataset, bytes int64) datasetInfo {
	info := datasetInfo{Name: d.name, N: d.idx.N(), Dim: d.idx.Dim(), Metric: d.metric.String(), Bytes: bytes}
	if d.idx.Float32() {
		info.Dtype = "float32"
	}
	return info
}

// ---------------------------------------------------------------- params

// validName delegates to the store's file-stem rule so a dataset name is
// valid iff it is safe to become a snapshot file name: 1-128 characters
// from [A-Za-z0-9._-], not starting with a dot. The leading-dot rule is
// load-bearing even without a data dir — it rejects ".", "..", and hidden
// names outright instead of trusting later path joins to neutralize them.
func validName(name string) bool {
	return store.SafeName(name)
}

// params reads one request's query parameters, parsed from the URL once.
// The first missing or malformed parameter latches err and later failures
// are ignored, so a parse function reads every parameter in order and its
// caller checks err once.
type params struct {
	v   url.Values
	err error
}

// fail latches a 400 message unless an earlier parameter already failed.
func (p *params) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf(format, args...)
	}
}

// required returns a required parameter's raw value, latching the
// missing-parameter error when it is absent (the typed readers' parse of
// "" then fails silently behind it).
func (p *params) required(key string) string {
	raw := p.v.Get(key)
	if raw == "" {
		p.fail("missing required parameter %q", key)
	}
	return raw
}

// check latches the error of parsing key's raw value.
func (p *params) check(key, raw string, err error) {
	if err != nil {
		p.fail("bad %s=%q: %v", key, raw, err)
	}
}

// int reads a required integer parameter.
func (p *params) int(key string) int {
	raw := p.required(key)
	v, err := strconv.Atoi(raw)
	p.check(key, raw, err)
	return v
}

// id reads a required point-id parameter, rejecting values outside int32
// range (a silent truncation would alias huge ids onto valid points).
func (p *params) id(key string) int32 {
	raw := p.required(key)
	v, err := strconv.ParseInt(raw, 10, 32)
	p.check(key, raw, err)
	return int32(v)
}

// float reads a required float parameter.
func (p *params) float(key string) float64 {
	raw := p.required(key)
	v, err := strconv.ParseFloat(raw, 64)
	p.check(key, raw, err)
	return v
}

// finite reads a required float parameter that the response echoes, so it
// must be finite: JSON has no form for NaN or ±Inf.
func (p *params) finite(key string) float64 {
	v := p.float(key)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		p.fail("bad %s=%q: want a finite number", key, p.v.Get(key))
	}
	return v
}

// bool reads an optional boolean parameter, defaulting to def when absent;
// a malformed value is a 400 like every other parameter, not a silent
// fallback.
func (p *params) bool(key string, def bool) bool {
	raw := p.v.Get(key)
	if raw == "" {
		return def
	}
	v, err := strconv.ParseBool(raw)
	p.check(key, raw, err)
	return v
}

// ctxDone reports whether the request was already cancelled (client gone,
// server shutting down). Handlers check it after parameter validation and
// before the expensive query so a disconnected client neither triggers a
// pipeline build nobody will read nor pays for serialization into a dead
// connection. There is nothing useful to write — the peer is gone — so
// callers just return.
func ctxDone(r *http.Request) bool {
	return r.Context().Err() != nil
}

// acquire pins the named dataset for the duration of one query, writing
// the 404 when it is absent. When the dataset is not resident but the
// snapshot store holds it, acquire lazily reloads it (cold loads for the
// same name coalesce into one decode). Callers must call release exactly
// once; ok=false means the error response has been written.
func (s *Server) acquire(w http.ResponseWriter, r *http.Request) (d *dataset, release func(), ok bool) {
	name := r.PathValue("name")
	if h, hit := s.reg.Acquire(name); hit {
		return h.Value(), h.Release, true
	}
	if s.st == nil || !validName(name) || !s.st.Has(name) {
		writeError(w, http.StatusNotFound, "dataset %q not found", name)
		return nil, nil, false
	}
	d, release, err := s.coldLoad(name)
	if err != nil {
		writeError(w, http.StatusNotFound, "dataset %q not found (snapshot unusable: %v)", name, err)
		return nil, nil, false
	}
	return d, release, true
}

// ---------------------------------------------------------------- upload

type uploadRequest struct {
	Metric string `json:"metric"`
	// Dtype selects the numeric representation: "float64" (default, exact)
	// or "float32" (SoA lane-scan fast path; see parclust.WithFloat32).
	Dtype  string      `json:"dtype"`
	Points [][]float64 `json:"points"`
}

// parseDtype maps the wire dtype, in any case, to the Index float32 flag.
func parseDtype(s string) (float32Mode bool, err error) {
	switch strings.ToLower(s) {
	case "", "float64":
		return false, nil
	case "float32":
		return true, nil
	}
	return false, fmt.Errorf("unknown dtype %q (want float64|float32)", s)
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !validName(name) {
		writeError(w, http.StatusBadRequest, "invalid dataset name %q (want [A-Za-z0-9._-]{1,128})", name)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	defer body.Close()

	var req uploadRequest
	pts, ok := readPoints(w, r, body, name, "upload", &req, &req.Points)
	if !ok {
		return
	}
	metricName := r.URL.Query().Get("metric")
	dtypeName := r.URL.Query().Get("dtype")
	if req.Metric != "" {
		metricName = req.Metric
	}
	if req.Dtype != "" {
		dtypeName = req.Dtype
	}

	m := parclust.MetricL2
	if metricName != "" {
		var err error
		m, err = parclust.ParseMetric(metricName)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	f32, err := parseDtype(dtypeName)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	idx, err := parclust.NewIndex(pts, &parclust.IndexOptions{Metric: m, Float32: f32})
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.installGate(idx)
	d := &dataset{name: name, metric: m, idx: idx, tenant: tenantKey(r)}
	size := idx.ApproxBytes()
	if s.cfg.TenantMaxBytes > 0 {
		if held := s.tenantBytes(d.tenant, name); held+size > s.cfg.TenantMaxBytes {
			s.quotaRejected.Add(1)
			setRetryAfter(w, time.Second)
			writeError(w, http.StatusInsufficientStorage,
				"tenant %q holds %d bytes; adding %d exceeds the %d-byte quota",
				d.tenant, held, size, s.cfg.TenantMaxBytes)
			return
		}
	}
	if err := s.reg.Put(name, d, size); err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, registry.ErrTooLarge) || errors.Is(err, registry.ErrOverBudget) {
			code = http.StatusInsufficientStorage
			// Over-budget is transient — evictions or deletions free space —
			// so tell the client when to come back.
			setRetryAfter(w, time.Second)
		}
		writeError(w, code, "admit dataset: %v", err)
		return
	}
	resp := map[string]any{"dataset": infoOf(d, size)}
	if s.st != nil {
		// Persist the (cold) snapshot now so the dataset survives a crash
		// before its first eviction; a replaced upload overwrites the old
		// file atomically. A failed write never fails the upload — the
		// dataset is admitted and serving — but the response says so.
		_, perr := s.st.Write(name, d.idx.WriteSnapshot)
		resp["persisted"] = perr == nil
	}
	writeJSON(w, http.StatusCreated, resp)
}

// readPoints parses the points body of an upload or insert: JSON into req,
// whose rows field is *rows, when the Content-Type says json, and CSV or
// whitespace rows (named name in parse errors) otherwise. An empty or
// ragged JSON body is a 400; what names the request in the empty-body
// message. ok=false means the error response has been written.
func readPoints(w http.ResponseWriter, r *http.Request, body io.Reader, name, what string, req any, rows *[][]float64) (pts parclust.Points, ok bool) {
	if !strings.Contains(r.Header.Get("Content-Type"), "json") {
		pts, err := dataio.ReadPoints(body, name)
		if err != nil {
			writeError(w, uploadErrCode(err), "parse points: %v", err)
		}
		return pts, err == nil
	}
	if err := json.NewDecoder(body).Decode(req); err != nil {
		writeError(w, uploadErrCode(err), "decode points: %v", err)
		return pts, false
	}
	if len(*rows) == 0 {
		writeError(w, http.StatusBadRequest, "no points in %s", what)
		return pts, false
	}
	dim := len((*rows)[0])
	for i, row := range *rows {
		if len(row) != dim {
			writeError(w, http.StatusBadRequest, "point %d has dimension %d, want %d", i, len(row), dim)
			return pts, false
		}
	}
	return parclust.PointsFromSlices(*rows), true
}

// uploadErrCode maps body-read failures to 413 when the MaxBytesReader
// tripped and 400 otherwise.
func uploadErrCode(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// ---------------------------------------------------------------- admin

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	var infos []datasetInfo
	resident := map[string]bool{}
	for _, key := range s.reg.Keys() {
		if h, ok := s.reg.Peek(key); ok {
			infos = append(infos, infoOf(h.Value(), h.Bytes()))
			resident[key] = true
			h.Release()
		}
	}
	resp := map[string]any{
		"datasets": infos,
		"registry": toRegistryJSON(s.reg.Stats()),
	}
	if s.st != nil {
		// Snapshots without a resident entry are still queryable (the
		// first query reloads them); list them so clients can see the full
		// serving surface, not just what happens to be in RAM.
		cold := []string{}
		if names, err := s.st.List(); err == nil {
			for _, name := range names {
				if !resident[name] {
					cold = append(cold, name)
				}
			}
		}
		resp["cold"] = cold
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	h, ok := s.reg.Peek(name)
	if !ok {
		// A cold dataset answers from its snapshot header without paying
		// for a full reload (info is an admin probe, not a query).
		if s.st != nil && validName(name) {
			if hdr, err := s.st.ReadHeaderFile(name); err == nil {
				writeJSON(w, http.StatusOK, map[string]any{
					"dataset": datasetInfo{Name: name, N: hdr.N, Dim: hdr.Dim, Metric: hdr.Metric, Dtype: hdr.Dtype},
					"cold":    true,
				})
				return
			}
		}
		writeError(w, http.StatusNotFound, "dataset %q not found", name)
		return
	}
	defer h.Release()
	d := h.Value()
	writeJSON(w, http.StatusOK, map[string]any{
		"dataset":  infoOf(d, h.Bytes()),
		"counters": toCountersJSON(d.idx.Stats()),
	})
}

func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	evicted := s.reg.Evict(name)
	removed := false
	// DELETE means "forget this dataset", which covers the snapshot too —
	// including a cold one that is only on disk.
	if s.st != nil && validName(name) && s.st.Has(name) {
		removed = s.st.Remove(name) == nil
	}
	if !evicted && !removed {
		writeError(w, http.StatusNotFound, "dataset %q not found", name)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"evicted": name, "snapshot_removed": removed})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	perDataset := map[string]any{}
	for _, key := range s.reg.Keys() {
		if h, ok := s.reg.Peek(key); ok {
			d := h.Value()
			perDataset[key] = map[string]any{
				"n":        d.idx.N(),
				"dim":      d.idx.Dim(),
				"metric":   d.metric.String(),
				"bytes":    h.Bytes(),
				"counters": toCountersJSON(d.idx.Stats()),
			}
			h.Release()
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"registry":   toRegistryJSON(s.reg.Stats()),
		"datasets":   perDataset,
		"store":      s.storeStats(),
		"robustness": s.robustStats(),
	})
}

// ---------------------------------------------------------------- queries

// flatResult is the hdbscan and dbscan response document. Like the other
// heads of a streaming answer it leaves its array field, last and
// omitempty, nil: the answer's array writes it (see stream.go).
type flatResult struct {
	Dataset        string  `json:"dataset"`
	MinPts         int     `json:"minpts"`
	Eps            float64 `json:"eps,omitempty"`
	MinClusterSize int     `json:"min_cluster_size,omitempty"`
	Algo           string  `json:"algo,omitempty"`
	Star           bool    `json:"star,omitempty"`
	NumClusters    int     `json:"num_clusters"`
	NumNoise       int     `json:"num_noise"`
	Labels         []int32 `json:"labels,omitempty"`
}

func countNoise(labels []int32) int {
	n := 0
	for _, l := range labels {
		if l < 0 {
			n++
		}
	}
	return n
}

// queryRun executes one parsed query against the pinned dataset's Index,
// already bound to the request context.
type queryRun func(name string, idx *parclust.Index) (answer, error)

// answer is a query's result, encoded by serveQuery once the mutation
// check has passed: the head document and, for the endpoints that stream,
// its large array. knn and range leave arr empty and answer buffered JSON
// only.
type answer struct {
	head any
	arr  array
}

// serveQuery is the one request pipeline behind the per-dataset GET
// queries; parse reads the endpoint's parameters and returns the query to
// run. Every request follows the same order: pin the dataset (404) and
// capture its mutation epoch; read every parameter, answering 400 before
// any stage work; return if the client is already gone; run the query
// under the request context; answer 409 if a mutation raced it, or map its
// error (see queryError); then encode the answer as buffered JSON, or as
// NDJSON when the client asked and the endpoint streams.
func (s *Server) serveQuery(parse func(p *params) queryRun) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		d, release, ok := s.acquire(w, r)
		if !ok {
			return
		}
		defer release()
		epoch := d.idx.MutationEpoch()
		p := params{v: r.URL.Query()}
		run := parse(&p)
		if p.err != nil {
			writeError(w, http.StatusBadRequest, "%v", p.err)
			return
		}
		if ctxDone(r) {
			return
		}
		ans, err := run(d.name, d.idx.WithContext(r.Context()))
		if !s.queryDone(w, r, d, epoch, err) {
			return
		}
		if ans.arr.field == "" || !wantsNDJSON(r) {
			writeAnswer(w, ans.head, ans.arr)
			return
		}
		streamAnswer(w, r, ans.head, ans.arr)
	}
}

func parseHDBSCAN(p *params) queryRun {
	minPts := p.int("minpts")
	algo, err := parclust.ParseHDBSCANAlgorithm(p.v.Get("algo"))
	if err != nil {
		p.fail("%v", err)
	}
	useEps := p.v.Get("eps") != ""
	var (
		eps float64
		mcs int
	)
	switch {
	case useEps:
		eps = p.finite("eps")
	case p.v.Get("minclustersize") != "":
		if mcs = p.int("minclustersize"); mcs < 1 {
			p.fail("minclustersize must be >= 1, got %d", mcs)
		}
	default:
		p.fail("need eps= (flat cut) or minclustersize= (stability extraction)")
	}
	withLabels := p.bool("labels", true)
	return func(name string, idx *parclust.Index) (answer, error) {
		hier, err := idx.HDBSCANWithAlgorithm(minPts, algo)
		if err != nil {
			return answer{}, err
		}
		res := &flatResult{Dataset: name, MinPts: minPts, Algo: algo.String()}
		var c parclust.Clustering
		if useEps {
			c = hier.ClustersAt(eps)
			res.Eps = eps
			res.NumNoise = hier.NumNoiseAt(eps)
		} else {
			c = hier.ExtractStableClusters(mcs)
			res.MinClusterSize = mcs
			res.NumNoise = countNoise(c.Labels)
		}
		res.NumClusters = c.NumClusters
		return answer{head: res, arr: labelArray(c.Labels, withLabels)}, nil
	}
}

func parseDBSCAN(p *params) queryRun {
	minPts := p.int("minpts")
	eps := p.finite("eps")
	star := p.bool("star", false)
	withLabels := p.bool("labels", true)
	return func(name string, idx *parclust.Index) (answer, error) {
		dbscan := idx.DBSCAN
		if star {
			dbscan = idx.DBSCANStar
		}
		c, err := dbscan(minPts, eps)
		if err != nil {
			return answer{}, err
		}
		res := &flatResult{
			Dataset: name, MinPts: minPts, Eps: eps, Star: star,
			NumClusters: c.NumClusters, NumNoise: countNoise(c.Labels),
		}
		return answer{head: res, arr: labelArray(c.Labels, withLabels)}, nil
	}
}

// opticsBar is one OPTICS position; Reachability is null for points that
// start a new connected component (+Inf has no JSON encoding).
type opticsBar struct {
	ID           int32    `json:"id"`
	Reachability *float64 `json:"reachability"`
}

// opticsResult is the OPTICS response document; Order is its array field.
type opticsResult struct {
	Dataset string      `json:"dataset"`
	MinPts  int         `json:"minpts"`
	Order   []opticsBar `json:"order,omitempty"`
}

// parseOPTICS accepts eps=inf, the default: the response does not echo eps.
func parseOPTICS(p *params) queryRun {
	minPts := p.int("minpts")
	eps := math.Inf(1)
	if p.v.Get("eps") != "" {
		eps = p.float("eps")
	}
	return func(name string, idx *parclust.Index) (answer, error) {
		entries, err := idx.OPTICS(minPts, eps)
		if err != nil {
			return answer{}, err
		}
		return answer{head: &opticsResult{Dataset: name, MinPts: minPts}, arr: barArray(entries)}, nil
	}
}

type edgeJSON struct {
	U int32   `json:"u"`
	V int32   `json:"v"`
	W float64 `json:"w"`
}

// emstResult is the EMST response document; Edges is its array field.
type emstResult struct {
	Dataset     string     `json:"dataset"`
	Algo        string     `json:"algo"`
	NumEdges    int        `json:"num_edges"`
	TotalWeight float64    `json:"total_weight"`
	Edges       []edgeJSON `json:"edges,omitempty"`
}

func parseEMST(p *params) queryRun {
	algo, err := parclust.ParseEMSTAlgorithm(p.v.Get("algo"))
	if err != nil {
		p.fail("%v", err)
	}
	withEdges := p.bool("edges", true)
	return func(name string, idx *parclust.Index) (answer, error) {
		edges, err := idx.EMSTWithAlgorithm(algo)
		if err != nil {
			return answer{}, err
		}
		total := 0.0
		for _, e := range edges {
			total += e.W
		}
		res := &emstResult{
			Dataset: name, Algo: algo.String(),
			NumEdges: len(edges), TotalWeight: total,
		}
		return answer{head: res, arr: edgeArray(edges, withEdges)}, nil
	}
}

type neighborJSON struct {
	ID   int32   `json:"id"`
	Dist float64 `json:"dist"`
}

// parseKNN and parseRange answer buffered JSON only.
func parseKNN(p *params) queryRun {
	q := p.id("q")
	k := p.int("k")
	return func(name string, idx *parclust.Index) (answer, error) {
		nbs, err := idx.KNN(q, k)
		if err != nil {
			return answer{}, err
		}
		out := make([]neighborJSON, len(nbs))
		for i, nb := range nbs {
			out[i] = neighborJSON{ID: nb.Idx, Dist: nb.Dist}
		}
		return answer{head: map[string]any{
			"dataset": name, "q": q, "k": k, "neighbors": out,
		}}, nil
	}
}

func parseRange(p *params) queryRun {
	q := p.id("q")
	radius := p.finite("r")
	withIDs := p.bool("ids", true)
	return func(name string, idx *parclust.Index) (answer, error) {
		ids, err := idx.RangeQuery(q, radius)
		if err != nil {
			return answer{}, err
		}
		resp := map[string]any{
			"dataset": name, "q": q, "r": radius, "count": len(ids),
		}
		if withIDs {
			resp["ids"] = ids
		}
		return answer{head: resp}, nil
	}
}

// ---------------------------------------------------------------- fan-out

// broadcastEntry is one dataset's slice of a fan-out query.
type broadcastEntry struct {
	Dataset     string `json:"dataset"`
	N           int    `json:"n"`
	NumClusters int    `json:"num_clusters"`
	NumNoise    int    `json:"num_noise"`
	Error       string `json:"error,omitempty"`
}

// handleBroadcast answers one HDBSCAN cut against every resident dataset,
// fanning the per-dataset queries out concurrently so a multi-tenant sweep
// uses the whole machine instead of iterating datasets sequentially.
//
// The fan-out deliberately uses one goroutine per dataset, NOT the
// work-stealing scheduler (parallel.For): a query body can block on an
// engine's build mutex or park on a singleflight flight, and a blocking
// body inside a scheduler task can be leapfrog-stolen by a stage-build
// leader's Sync — which would park the leader on a flight only it can
// complete (or self-lock its own buildMu), deadlocking the daemon. The
// per-dataset query work below still runs on the scheduler internally.
func (s *Server) handleBroadcast(w http.ResponseWriter, r *http.Request) {
	p := params{v: r.URL.Query()}
	minPts := p.int("minpts")
	eps := p.finite("eps")
	if p.err != nil {
		writeError(w, http.StatusBadRequest, "%v", p.err)
		return
	}
	keys := s.reg.Keys()
	results := make([]broadcastEntry, len(keys))
	ctx := r.Context()
	var wg sync.WaitGroup
	queryOne := func(i int) {
		results[i] = broadcastEntry{Dataset: keys[i]}
		// A cancelled broadcast must not keep launching per-dataset
		// builds: datasets whose goroutine starts after the client
		// disconnects bail out here instead of running a query nobody
		// will read. Queries already inside the engine run to completion
		// (their result stays memoized for the next caller).
		if ctx.Err() != nil {
			results[i].Error = "request cancelled"
			return
		}
		h, ok := s.reg.Acquire(keys[i])
		if !ok {
			results[i].Error = "evicted during broadcast"
			return
		}
		defer h.Release()
		d := h.Value()
		results[i].N = d.idx.N()
		hier, err := d.idx.WithContext(ctx).HDBSCAN(minPts)
		if err != nil {
			results[i].Error = err.Error()
			return
		}
		c := hier.ClustersAt(eps)
		results[i].NumClusters = c.NumClusters
		results[i].NumNoise = hier.NumNoiseAt(eps)
	}
	for i := range keys {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			queryOne(i)
		}(i)
	}
	wg.Wait()
	if ctx.Err() != nil {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"minpts": minPts, "eps": eps, "results": results,
	})
}
