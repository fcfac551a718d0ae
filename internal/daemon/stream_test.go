package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"parclust"
)

// rawGet performs one request with an optional Accept header and returns
// the status, content type, and full body.
func (ts *testServer) rawGet(path, accept string) (int, string, []byte) {
	ts.t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		ts.t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		ts.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		ts.t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

// ndjsonLines splits a complete NDJSON stream into its records, asserting
// the trailer is present, well-formed, and carries the expected item count.
func ndjsonLines(t *testing.T, body []byte) (header []byte, chunks [][]byte, items int) {
	t.Helper()
	var lines [][]byte
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) < 2 {
		t.Fatalf("stream has %d lines, want header + trailer at least", len(lines))
	}
	var tr streamTrailer
	if err := json.Unmarshal(lines[len(lines)-1], &tr); err != nil || !tr.Done {
		t.Fatalf("last line %q is not a trailer (err=%v)", lines[len(lines)-1], err)
	}
	return lines[0], lines[1 : len(lines)-1], tr.Items
}

// reencode marshals v exactly the way writeJSON does (no HTML escaping,
// trailing newline), so reassembled streams can be compared byte-for-byte
// against buffered responses.
func reencode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamReassemblyMatchesBuffered asserts that for every streaming
// endpoint the NDJSON stream, reassembled (chunks concatenated back onto
// the header), is byte-identical to the buffered JSON response of the same
// query — same fields, same order, same float formatting.
func TestStreamReassemblyMatchesBuffered(t *testing.T) {
	defer func(old int) { streamChunkSize = old }(streamChunkSize)
	streamChunkSize = 7 // force multiple chunks and a ragged tail on n=300

	ts := newTestServer(t, Config{})
	pts := testPoints(300)
	if code := ts.upload("stream", pts, ""); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}

	check := func(path string, header any, appendChunk func(chunk []byte)) {
		t.Helper()
		bufStatus, bufCT, buffered := ts.rawGet(path, "")
		if bufStatus != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, bufStatus, buffered)
		}
		if !strings.Contains(bufCT, "application/json") {
			t.Fatalf("GET %s: buffered content type %q", path, bufCT)
		}
		status, ct, body := ts.rawGet(path, "application/x-ndjson")
		if status != http.StatusOK {
			t.Fatalf("GET %s (ndjson): status %d: %s", path, status, body)
		}
		if ct != "application/x-ndjson" {
			t.Fatalf("GET %s (ndjson): content type %q", path, ct)
		}
		head, chunks, items := ndjsonLines(t, body)
		if err := json.Unmarshal(head, header); err != nil {
			t.Fatalf("GET %s: decode header %q: %v", path, head, err)
		}
		for _, c := range chunks {
			appendChunk(c)
		}
		reassembled := reencode(t, header)
		if !bytes.Equal(reassembled, buffered) {
			t.Fatalf("GET %s: reassembled stream differs from buffered response\nstream:   %.200s\nbuffered: %.200s",
				path, reassembled, buffered)
		}
		var wantItems int
		switch h := header.(type) {
		case *flatResult:
			wantItems = len(h.Labels)
		case *emstResult:
			wantItems = len(h.Edges)
		case *opticsResult:
			wantItems = len(h.Order)
		}
		if items != wantItems {
			t.Fatalf("GET %s: trailer items = %d, want %d", path, items, wantItems)
		}
		if len(chunks) < 2 {
			t.Fatalf("GET %s: %d chunks, want several at streamChunkSize=%d", path, len(chunks), streamChunkSize)
		}
	}

	var hd flatResult
	check("/v1/datasets/stream/hdbscan?minpts=5&eps=1.25", &hd, func(c []byte) {
		var ch flatResult
		if err := json.Unmarshal(c, &ch); err != nil {
			t.Fatal(err)
		}
		hd.Labels = append(hd.Labels, ch.Labels...)
	})
	var db flatResult
	check("/v1/datasets/stream/dbscan?minpts=5&eps=1.25&star=true", &db, func(c []byte) {
		var ch flatResult
		if err := json.Unmarshal(c, &ch); err != nil {
			t.Fatal(err)
		}
		db.Labels = append(db.Labels, ch.Labels...)
	})
	var em emstResult
	check("/v1/datasets/stream/emst", &em, func(c []byte) {
		var ch emstResult
		if err := json.Unmarshal(c, &ch); err != nil {
			t.Fatal(err)
		}
		em.Edges = append(em.Edges, ch.Edges...)
	})
	var op opticsResult
	check("/v1/datasets/stream/optics?minpts=5", &op, func(c []byte) {
		var ch opticsResult
		if err := json.Unmarshal(c, &ch); err != nil {
			t.Fatal(err)
		}
		op.Order = append(op.Order, ch.Order...)
	})

	// labels=false streams just a header and a zero-item trailer.
	status, _, body := ts.rawGet("/v1/datasets/stream/hdbscan?minpts=5&eps=1.25&labels=false", "application/x-ndjson")
	if status != http.StatusOK {
		t.Fatalf("labels=false: status %d", status)
	}
	if _, chunks, items := ndjsonLines(t, body); len(chunks) != 0 || items != 0 {
		t.Fatalf("labels=false: %d chunks, %d items, want 0/0", len(chunks), items)
	}
}

// reassemble rebuilds a buffered document from a complete NDJSON stream of
// an array answer, byte for byte: the head line with the chunks' items
// joined in as its last field, which is left out when there are none. It
// checks that every chunk is a {"<field>":[...]} record of at most
// streamChunkSize items and returns the trailer's item count too.
func reassemble(t *testing.T, body []byte, field string) (doc []byte, items int) {
	t.Helper()
	head, chunks, items := ndjsonLines(t, body)
	prefix, suffix := []byte(`{"`+field+`":[`), []byte("]}")
	var joined [][]byte
	for _, c := range chunks {
		var rec map[string][]json.RawMessage
		if err := json.Unmarshal(c, &rec); err != nil || len(rec) != 1 || len(rec[field]) > streamChunkSize {
			t.Fatalf("chunk %.100q: want one %q array of at most %d items (err %v)", c, field, streamChunkSize, err)
		}
		if !bytes.HasPrefix(c, prefix) || !bytes.HasSuffix(c, suffix) {
			t.Fatalf("chunk %.100q is not a %s...%s record", c, prefix, suffix)
		}
		joined = append(joined, c[len(prefix):len(c)-len(suffix)])
	}
	doc = append([]byte(nil), head...)
	if len(joined) > 0 {
		doc = append(doc[:len(doc)-1], `,"`+field+`":[`...)
		doc = append(doc, bytes.Join(joined, []byte(","))...)
		doc = append(doc, "]}"...)
	}
	return append(doc, '\n'), items
}

// TestArrayWriterMatchesEncodingJSON pins the array writer to encoding/json
// for the three heads with an array. The buffered form, and the NDJSON
// stream reassembled, equal encoding/json's encoding of the head with its
// array set, at lengths around streamChunkSize. This pins the rule that
// the array is the head's last field and omitempty. A head encoding/json
// rejects answers 500 in both forms.
func TestArrayWriterMatchesEncodingJSON(t *testing.T) {
	floats := []float64{0, 1e-7, 5e-324, 1e21, math.Nextafter(1e21, 0), 1e-6, 0.1, 2.5, 123456.789, math.MaxFloat64}
	for _, n := range []int{0, 1, streamChunkSize - 1, streamChunkSize, streamChunkSize + 1} {
		labels := make([]int32, n)
		edges := make([]parclust.Edge, n)
		entries := make([]parclust.OPTICSEntry, n)
		wireEdges := make([]edgeJSON, n)
		bars := make([]opticsBar, n)
		for i := range n {
			labels[i] = int32(i%13 - 1)
			w := floats[i%len(floats)] / float64(1+i%3)
			edges[i] = parclust.Edge{U: int32(i), V: int32(i * 7919), W: w}
			wireEdges[i] = edgeJSON{U: edges[i].U, V: edges[i].V, W: w}
			entries[i] = parclust.OPTICSEntry{Idx: int32(n - i), Reachability: w}
			bars[i] = opticsBar{ID: entries[i].Idx, Reachability: &wireEdges[i].W}
			if i%5 == 4 {
				entries[i].Reachability, bars[i].Reachability = math.Inf(1), nil
			}
		}
		cases := []struct {
			name       string
			head, full any
			arr        array
		}{
			{"flat", &flatResult{Dataset: "d", MinPts: 5, Eps: 0.5, NumClusters: 12, NumNoise: 3},
				&flatResult{Dataset: "d", MinPts: 5, Eps: 0.5, NumClusters: 12, NumNoise: 3, Labels: labels},
				labelArray(labels, true)},
			{"emst", &emstResult{Dataset: "d", Algo: "memogfk", NumEdges: n, TotalWeight: 1.5},
				&emstResult{Dataset: "d", Algo: "memogfk", NumEdges: n, TotalWeight: 1.5, Edges: wireEdges},
				edgeArray(edges, true)},
			{"optics", &opticsResult{Dataset: "d", MinPts: 5},
				&opticsResult{Dataset: "d", MinPts: 5, Order: bars},
				barArray(entries)},
		}
		for _, tc := range cases {
			want := reencode(t, tc.full)
			rec := httptest.NewRecorder()
			writeAnswer(rec, tc.head, tc.arr)
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("%s n=%d buffered: status %d\ngot  %.200s\nwant %.200s", tc.name, n, rec.Code, rec.Body.Bytes(), want)
			}
			rec = httptest.NewRecorder()
			streamAnswer(rec, httptest.NewRequest(http.MethodGet, "/", nil), tc.head, tc.arr)
			got, items := reassemble(t, rec.Body.Bytes(), tc.arr.field)
			if rec.Code != http.StatusOK || items != n || !bytes.Equal(got, want) {
				t.Fatalf("%s n=%d stream: status %d, %d items\ngot  %.200s\nwant %.200s", tc.name, n, rec.Code, items, got, want)
			}
		}
	}

	bad := &emstResult{Dataset: "d", TotalWeight: math.Inf(1)}
	for _, ndjson := range []bool{false, true} {
		rec := httptest.NewRecorder()
		if ndjson {
			streamAnswer(rec, httptest.NewRequest(http.MethodGet, "/", nil), bad, edgeArray(nil, true))
		} else {
			writeJSON(rec, http.StatusOK, bad)
		}
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "encode response") {
			t.Errorf("non-finite head (ndjson=%v): status %d, body %s; want 500", ndjson, rec.Code, rec.Body)
		}
	}
}

// postSweep posts a sweep body with an optional Accept header.
func (ts *testServer) postSweep(name string, body string, accept string) (int, []byte) {
	ts.t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/datasets/"+name+"/sweep", strings.NewReader(body))
	if err != nil {
		ts.t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		ts.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		ts.t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestSweepCountersAndCutCache runs a 3x5 grid in one request against a
// cold dataset and asserts the stage-reuse contract: the whole grid costs
// one tree build, one coreDist + MST + dendrogram build per distinct
// minPts, and one flat cut per cell. A second identical sweep is answered
// entirely from the cut-result cache.
func TestSweepCountersAndCutCache(t *testing.T) {
	ts := newTestServer(t, Config{})
	if code := ts.upload("grid", testPoints(500), ""); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	var before struct {
		Registry registryJSON `json:"registry"`
	}
	ts.get("/v1/datasets", &before)

	body := `{"minpts":[3,5,7],"eps":[0.25,0.5,1.0,2.0,4.0]}`
	var res sweepResult
	if code, raw := ts.postSweep("grid", body, ""); code != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", code, raw)
	} else if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.NumCells != 15 || len(res.Cells) != 15 {
		t.Fatalf("sweep returned %d/%d cells, want 15", res.NumCells, len(res.Cells))
	}
	for _, cell := range res.Cells {
		if cell.Labels != nil {
			t.Fatalf("cell %+v carries labels without labels:true", cell)
		}
	}

	counters := func() countersJSON {
		var info struct {
			Counters countersJSON `json:"counters"`
		}
		ts.get("/v1/datasets/grid", &info)
		return info.Counters
	}
	c := counters()
	if c.TreeBuilds != 1 || c.CoreDistBuilds != 3 || c.MSTBuilds != 3 || c.DendrogramBuilds != 3 {
		t.Fatalf("after 3x5 sweep: tree=%d core=%d mst=%d dendro=%d, want 1/3/3/3",
			c.TreeBuilds, c.CoreDistBuilds, c.MSTBuilds, c.DendrogramBuilds)
	}
	if c.CutBuilds != 15 || c.CutHits != 0 {
		t.Fatalf("after 3x5 sweep: cut builds=%d hits=%d, want 15/0", c.CutBuilds, c.CutHits)
	}

	// The sweep grew the Index's cut caches and the handler re-charged the
	// registry, so occupancy accounting reflects the growth.
	var after struct {
		Registry registryJSON `json:"registry"`
	}
	ts.get("/v1/datasets", &after)
	if after.Registry.Bytes <= before.Registry.Bytes {
		t.Fatalf("registry bytes %d -> %d, want growth from the cut caches",
			before.Registry.Bytes, after.Registry.Bytes)
	}

	// The identical grid again: every cell is a cut-cache hit, no new
	// stage work of any kind.
	var res2 sweepResult
	if code, raw := ts.postSweep("grid", body, ""); code != http.StatusOK {
		t.Fatalf("repeat sweep: status %d", code)
	} else if err := json.Unmarshal(raw, &res2); err != nil {
		t.Fatal(err)
	}
	c = counters()
	if c.TreeBuilds != 1 || c.CoreDistBuilds != 3 || c.MSTBuilds != 3 {
		t.Fatalf("repeat sweep rebuilt stages: tree=%d core=%d mst=%d", c.TreeBuilds, c.CoreDistBuilds, c.MSTBuilds)
	}
	if c.CutBuilds != 15 || c.CutHits < 15 {
		t.Fatalf("repeat sweep: cut builds=%d hits=%d, want 15 builds and >=15 hits", c.CutBuilds, c.CutHits)
	}

	// The NDJSON stream of the same sweep reassembles to the buffered doc.
	_, bufferedRaw := ts.postSweep("grid", body, "")
	status, raw := ts.postSweep("grid", body, "application/x-ndjson")
	if status != http.StatusOK {
		t.Fatalf("ndjson sweep: status %d", status)
	}
	head, cells, items := ndjsonLines(t, raw)
	var streamed sweepResult
	if err := json.Unmarshal(head, &streamed); err != nil {
		t.Fatal(err)
	}
	for _, line := range cells {
		var cell sweepCell
		if err := json.Unmarshal(line, &cell); err != nil {
			t.Fatal(err)
		}
		streamed.Cells = append(streamed.Cells, cell)
	}
	if items != 15 || len(streamed.Cells) != 15 {
		t.Fatalf("ndjson sweep: %d cells, trailer items %d, want 15", len(streamed.Cells), items)
	}
	if got := reencode(t, &streamed); !bytes.Equal(got, bufferedRaw) {
		t.Fatalf("ndjson sweep reassembly differs from buffered response\nstream:   %.200s\nbuffered: %.200s", got, bufferedRaw)
	}
}

// TestSweepValidation exercises the strict request parser through the
// endpoint: every malformed grid is a 400 before any stage work runs.
func TestSweepValidation(t *testing.T) {
	ts := newTestServer(t, Config{MaxSweepCells: 6})
	if code := ts.upload("v", testPoints(50), ""); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	bad := []struct {
		name, body string
	}{
		{"empty body", ``},
		{"not json", `minpts=3`},
		{"empty minpts", `{"minpts":[],"eps":[1]}`},
		{"empty eps", `{"minpts":[3],"eps":[]}`},
		{"minpts zero", `{"minpts":[0],"eps":[1]}`},
		{"minpts negative", `{"minpts":[-2],"eps":[1]}`},
		{"minpts over n", `{"minpts":[51],"eps":[1]}`},
		{"eps negative", `{"minpts":[3],"eps":[-0.5]}`},
		{"eps huge literal", `{"minpts":[3],"eps":[1e999]}`},
		{"unknown field", `{"minpts":[3],"eps":[1],"radius":2}`},
		{"trailing data", `{"minpts":[3],"eps":[1]} {"again":true}`},
		{"bad algo", `{"minpts":[3],"eps":[1],"algo":"kmeans"}`},
		{"grid over cap", `{"minpts":[3,4,5],"eps":[1,2,3]}`},
	}
	for _, tc := range bad {
		if code, raw := ts.postSweep("v", tc.body, ""); code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, code, raw)
		}
	}

	// Duplicates collapse instead of erroring: a 3x3 grid of repeated
	// values is one distinct cell and passes the 6-cell cap.
	var res sweepResult
	code, raw := ts.postSweep("v", `{"minpts":[3,3,3],"eps":[1,1,1]}`, "")
	if code != http.StatusOK {
		t.Fatalf("duplicate grid: status %d: %s", code, raw)
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.NumCells != 1 || len(res.Cells) != 1 {
		t.Fatalf("duplicate grid: %d cells, want 1", len(res.Cells))
	}
	if code := ts.do(http.MethodPost, "/v1/datasets/nosuch/sweep", []byte(`{"minpts":[3],"eps":[1]}`), "application/json", nil); code != http.StatusNotFound {
		t.Fatalf("sweep on absent dataset: status %d, want 404", code)
	}
}

// TestDaemonStreamingDisconnect hammers one shared daemon with concurrent
// NDJSON streams while half the clients disconnect mid-stream, asserting
// the server neither wedges nor corrupts later responses. The interesting
// failure modes are racy (writer goroutines outliving their request,
// shared cut-cache slices), so the CI race step runs this explicitly.
func TestDaemonStreamingDisconnect(t *testing.T) {
	if testing.Short() {
		t.Skip("streaming disconnect stress test skipped in -short mode")
	}
	defer func(old int) { streamChunkSize = old }(streamChunkSize)
	streamChunkSize = 16 // many small records: wide cancellation window

	ts := newTestServer(t, Config{})
	if code := ts.upload("churn", testPoints(2000), ""); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}

	const clients = 24
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var body io.Reader
			path := fmt.Sprintf("/v1/datasets/churn/hdbscan?minpts=%d&eps=1.0", 3+i%4)
			method := http.MethodGet
			if i%3 == 0 {
				path = "/v1/datasets/churn/sweep"
				method = http.MethodPost
				body = strings.NewReader(`{"minpts":[3,4,5],"eps":[0.5,1.0,2.0],"labels":true}`)
			}
			req, err := http.NewRequestWithContext(ctx, method, ts.URL+path, body)
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set("Accept", "application/x-ndjson")
			resp, err := ts.Client().Do(req)
			if err != nil {
				return // cancellation racing connection setup is fine
			}
			defer resp.Body.Close()
			if i%2 == 0 {
				// Disconnect after the first record: the server must stop
				// producing at the next chunk boundary.
				rd := bufio.NewReader(resp.Body)
				_, _ = rd.ReadBytes('\n')
				cancel()
				return
			}
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("client %d: read stream: %v", i, err)
				return
			}
			if !bytes.Contains(raw, []byte(`"done":true`)) {
				t.Errorf("client %d: stream ended without a trailer", i)
			}
		}(i)
	}
	wg.Wait()

	// The daemon is still healthy: a fresh buffered query succeeds.
	var out labelsResponse
	if code := ts.get("/v1/datasets/churn/hdbscan?minpts=3&eps=1.0", &out); code != http.StatusOK {
		t.Fatalf("post-churn query: status %d", code)
	}
	if len(out.Labels) != 2000 {
		t.Fatalf("post-churn query: %d labels, want 2000", len(out.Labels))
	}
}

// TestBroadcastObservesCancellation asserts the fan-out bugfix: a
// broadcast whose client disconnected must not launch per-dataset builds
// for datasets its goroutines had not reached yet.
func TestBroadcastObservesCancellation(t *testing.T) {
	ts := newTestServer(t, Config{})
	for i := 0; i < 4; i++ {
		if code := ts.upload(fmt.Sprintf("bc%d", i), testPoints(200), ""); code != http.StatusCreated {
			t.Fatalf("upload %d: status %d", i, code)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already disconnected before the handler runs
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/broadcast/hdbscan?minpts=3&eps=1.0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := ts.Client().Do(req); err == nil {
		resp.Body.Close()
	}

	// No dataset may have built anything for the dead broadcast. The
	// request may have been killed before reaching the handler at all;
	// either way stage counters must be zero everywhere.
	var stats struct {
		Datasets map[string]struct {
			Counters countersJSON `json:"counters"`
		} `json:"datasets"`
	}
	ts.get("/v1/stats", &stats)
	for name, d := range stats.Datasets {
		if d.Counters.TreeBuilds != 0 || d.Counters.MSTBuilds != 0 {
			t.Fatalf("dataset %s built stages for a cancelled broadcast: %+v", name, d.Counters)
		}
	}
}

// TestStreamCountsAsQuery pins the interaction between streaming and the
// engine's memoization: an NDJSON query warms the same stages a buffered
// query reads, so mixing modes never doubles stage work.
func TestStreamCountsAsQuery(t *testing.T) {
	ts := newTestServer(t, Config{})
	if code := ts.upload("mix", testPoints(300), ""); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	if status, _, body := ts.rawGet("/v1/datasets/mix/hdbscan?minpts=4&eps=1.0", "application/x-ndjson"); status != http.StatusOK {
		t.Fatalf("ndjson warmup: status %d: %s", status, body)
	}
	var out labelsResponse
	if code := ts.get("/v1/datasets/mix/hdbscan?minpts=4&eps=1.0", &out); code != http.StatusOK {
		t.Fatalf("buffered query: status %d", code)
	}
	var info struct {
		Counters countersJSON `json:"counters"`
	}
	ts.get("/v1/datasets/mix", &info)
	if info.Counters.TreeBuilds != 1 || info.Counters.MSTBuilds != 1 {
		t.Fatalf("mixed modes rebuilt stages: %+v", info.Counters)
	}
	if info.Counters.CutHits < 1 {
		t.Fatalf("buffered repeat of a streamed cut missed the cut cache: %+v", info.Counters)
	}
}
