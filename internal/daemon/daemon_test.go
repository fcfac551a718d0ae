package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parclust"
	"parclust/internal/engine"
)

// testServer wraps an httptest server around a fresh daemon.
type testServer struct {
	*httptest.Server
	srv *Server
	t   *testing.T
}

func newTestServer(t *testing.T, cfg Config) *testServer {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &testServer{Server: ts, srv: s, t: t}
}

// do performs one request and decodes the JSON response into out (which
// may be nil), returning the status code.
func (ts *testServer) do(method, path string, body []byte, contentType string, out any) int {
	ts.t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		ts.t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
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
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			ts.t.Fatalf("decode %s %s response %q: %v", method, path, raw, err)
		}
	}
	return resp.StatusCode
}

func (ts *testServer) get(path string, out any) int {
	return ts.do(http.MethodGet, path, nil, "", out)
}

// upload stores pts under name via the JSON body format.
func (ts *testServer) upload(name string, pts parclust.Points, metric string) int {
	ts.t.Helper()
	rows := make([][]float64, pts.N)
	for i := 0; i < pts.N; i++ {
		rows[i] = append([]float64(nil), pts.Data[i*pts.Dim:(i+1)*pts.Dim]...)
	}
	body, err := json.Marshal(uploadRequest{Metric: metric, Points: rows})
	if err != nil {
		ts.t.Fatal(err)
	}
	return ts.do(http.MethodPut, "/v1/datasets/"+name, body, "application/json", nil)
}

func testPoints(n int) parclust.Points {
	return parclust.GenerateGaussianMixture(n, 2, 3, 7)
}

type labelsResponse struct {
	NumClusters int     `json:"num_clusters"`
	NumNoise    int     `json:"num_noise"`
	Labels      []int32 `json:"labels"`
}

func sameLabels(t *testing.T, what string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d labels, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: label[%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
}

// TestDaemonEndToEnd uploads a dataset and checks that every query
// endpoint returns results byte-identical to the one-shot library API: a
// minPts x eps HDBSCAN sweep, DBSCAN/DBSCAN*, OPTICS, EMST, k-NN and
// range queries.
func TestDaemonEndToEnd(t *testing.T) {
	ts := newTestServer(t, Config{})
	pts := testPoints(300)
	if code := ts.upload("e2e", pts, ""); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}

	minPtsList := []int{3, 7}
	epsList := []float64{0.5, 1.0, 2.0, 4.0}
	for _, minPts := range minPtsList {
		oneShot, err := parclust.HDBSCAN(pts, minPts)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range epsList {
			var got labelsResponse
			path := fmt.Sprintf("/v1/datasets/e2e/hdbscan?minpts=%d&eps=%g", minPts, eps)
			if code := ts.get(path, &got); code != http.StatusOK {
				t.Fatalf("GET %s: status %d", path, code)
			}
			want := oneShot.ClustersAt(eps)
			if got.NumClusters != want.NumClusters || got.NumNoise != oneShot.NumNoiseAt(eps) {
				t.Fatalf("hdbscan(%d,%g): clusters=%d noise=%d, want %d/%d",
					minPts, eps, got.NumClusters, got.NumNoise, want.NumClusters, oneShot.NumNoiseAt(eps))
			}
			sameLabels(t, path, got.Labels, want.Labels)
		}
	}

	// The whole sweep above must have reused one tree and one pipeline run
	// per minPts.
	var info struct {
		Counters countersJSON `json:"counters"`
	}
	if code := ts.get("/v1/datasets/e2e", &info); code != http.StatusOK {
		t.Fatalf("info: status %d", code)
	}
	c := info.Counters
	if c.TreeBuilds != 1 || c.CoreDistBuilds != 2 || c.MSTBuilds != 2 || c.DendrogramBuilds != 2 {
		t.Fatalf("sweep counters: tree=%d core=%d mst=%d dendro=%d, want 1/2/2/2",
			c.TreeBuilds, c.CoreDistBuilds, c.MSTBuilds, c.DendrogramBuilds)
	}

	// Stability-based extraction.
	{
		var got labelsResponse
		if code := ts.get("/v1/datasets/e2e/hdbscan?minpts=5&minclustersize=10", &got); code != http.StatusOK {
			t.Fatalf("stable extraction: status %d", code)
		}
		oneShot, _ := parclust.HDBSCAN(pts, 5)
		want := oneShot.ExtractStableClusters(10)
		if got.NumClusters != want.NumClusters {
			t.Fatalf("stable extraction: %d clusters, want %d", got.NumClusters, want.NumClusters)
		}
		sameLabels(t, "stable extraction", got.Labels, want.Labels)
	}

	// DBSCAN and DBSCAN*.
	for _, star := range []bool{false, true} {
		var got labelsResponse
		path := fmt.Sprintf("/v1/datasets/e2e/dbscan?minpts=5&eps=1.5&star=%v", star)
		if code := ts.get(path, &got); code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, code)
		}
		var want parclust.Clustering
		var err error
		if star {
			want, err = parclust.DBSCANStar(pts, 5, 1.5)
		} else {
			want, err = parclust.DBSCAN(pts, 5, 1.5)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got.NumClusters != want.NumClusters {
			t.Fatalf("%s: %d clusters, want %d", path, got.NumClusters, want.NumClusters)
		}
		sameLabels(t, path, got.Labels, want.Labels)
	}

	// OPTICS: ids identical, reachability identical with null <-> +Inf.
	{
		var got struct {
			Order []opticsBar `json:"order"`
		}
		if code := ts.get("/v1/datasets/e2e/optics?minpts=5&eps=2.0", &got); code != http.StatusOK {
			t.Fatalf("optics: status %d", code)
		}
		want, err := parclust.OPTICS(pts, 5, 2.0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Order) != len(want) {
			t.Fatalf("optics: %d entries, want %d", len(got.Order), len(want))
		}
		for i, e := range want {
			g := got.Order[i]
			if g.ID != e.Idx {
				t.Fatalf("optics[%d]: id %d, want %d", i, g.ID, e.Idx)
			}
			if math.IsInf(e.Reachability, 1) {
				if g.Reachability != nil {
					t.Fatalf("optics[%d]: reachability %v, want null", i, *g.Reachability)
				}
			} else if g.Reachability == nil || *g.Reachability != e.Reachability {
				t.Fatalf("optics[%d]: reachability %v, want %v", i, g.Reachability, e.Reachability)
			}
		}
	}

	// EMST edges byte-identical to the one-shot result.
	{
		var got struct {
			NumEdges int        `json:"num_edges"`
			Edges    []edgeJSON `json:"edges"`
		}
		if code := ts.get("/v1/datasets/e2e/emst", &got); code != http.StatusOK {
			t.Fatalf("emst: status %d", code)
		}
		want, err := parclust.EMST(pts)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumEdges != len(want) || len(got.Edges) != len(want) {
			t.Fatalf("emst: %d edges, want %d", got.NumEdges, len(want))
		}
		for i, e := range want {
			g := got.Edges[i]
			if g.U != e.U || g.V != e.V || g.W != e.W {
				t.Fatalf("emst edge %d: (%d,%d,%v), want (%d,%d,%v)", i, g.U, g.V, g.W, e.U, e.V, e.W)
			}
		}
	}

	// k-NN and range against a fresh Index.
	{
		fresh, err := parclust.NewIndex(pts, nil)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Neighbors []neighborJSON `json:"neighbors"`
		}
		if code := ts.get("/v1/datasets/e2e/knn?q=0&k=5", &got); code != http.StatusOK {
			t.Fatalf("knn: status %d", code)
		}
		want, _ := fresh.KNN(0, 5)
		if len(got.Neighbors) != len(want) {
			t.Fatalf("knn: %d neighbors, want %d", len(got.Neighbors), len(want))
		}
		for i, nb := range want {
			g := got.Neighbors[i]
			if g.ID != nb.Idx || g.Dist != nb.Dist {
				t.Fatalf("knn[%d]: (%d,%v), want (%d,%v)", i, g.ID, g.Dist, nb.Idx, nb.Dist)
			}
		}
		var gotRange struct {
			Count int     `json:"count"`
			IDs   []int32 `json:"ids"`
		}
		if code := ts.get("/v1/datasets/e2e/range?q=0&r=1.5", &gotRange); code != http.StatusOK {
			t.Fatalf("range: status %d", code)
		}
		wantIDs, _ := fresh.RangeQuery(0, 1.5)
		if gotRange.Count != len(wantIDs) || len(gotRange.IDs) != len(wantIDs) {
			t.Fatalf("range: count=%d ids=%d, want %d", gotRange.Count, len(gotRange.IDs), len(wantIDs))
		}
		idSet := map[int32]bool{}
		for _, id := range wantIDs {
			idSet[id] = true
		}
		for _, id := range gotRange.IDs {
			if !idSet[id] {
				t.Fatalf("range: unexpected id %d", id)
			}
		}
	}
}

// TestDaemonCSVUpload checks the CSV body format produces the same
// dataset as the JSON one.
func TestDaemonCSVUpload(t *testing.T) {
	ts := newTestServer(t, Config{})
	pts := testPoints(120)
	var csv strings.Builder
	csv.WriteString("# demo dataset\n")
	for i := 0; i < pts.N; i++ {
		row := pts.Data[i*pts.Dim : (i+1)*pts.Dim]
		fmt.Fprintf(&csv, "%v,%v\n", row[0], row[1])
	}
	if code := ts.do(http.MethodPut, "/v1/datasets/csvds", []byte(csv.String()), "text/csv", nil); code != http.StatusCreated {
		t.Fatalf("CSV upload: status %d", code)
	}
	var got labelsResponse
	if code := ts.get("/v1/datasets/csvds/hdbscan?minpts=5&eps=2.0", &got); code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	oneShot, err := parclust.HDBSCAN(pts, 5)
	if err != nil {
		t.Fatal(err)
	}
	sameLabels(t, "csv-uploaded dataset", got.Labels, oneShot.ClustersAt(2.0).Labels)
}

// TestDaemonColdQueriesCoalesce proves the serving-path singleflight: 16
// concurrent cold HTTP queries against one dataset perform exactly one
// tree build, with the other 15 counted as coalesced. The engine build
// hook holds the leader's pipeline run open until all followers have
// parked, making the counter deterministic. A warm phase then checks that
// no query against the warm dataset fails, buffered, streamed or swept.
func TestDaemonColdQueriesCoalesce(t *testing.T) {
	const clients = 16
	ts := newTestServer(t, Config{})
	if code := ts.upload("cold", testPoints(400), ""); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}

	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	engine.TestBuildHook = func(stage string) {
		if stage == "hier" {
			<-gate
		}
	}
	defer func() { engine.TestBuildHook = nil }()

	counters := func() countersJSON {
		var info struct {
			Counters countersJSON `json:"counters"`
		}
		if code := ts.get("/v1/datasets/cold", &info); code != http.StatusOK {
			t.Fatalf("info: status %d", code)
		}
		return info.Counters
	}

	var wg sync.WaitGroup
	var bad atomic.Int64
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got labelsResponse
			if code := ts.get("/v1/datasets/cold/hdbscan?minpts=10&eps=1.0&labels=false", &got); code != http.StatusOK {
				bad.Add(1)
			}
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for counters().DendrogramCoalesced != clients-1 {
		if time.Now().After(deadline) {
			release()
			t.Fatalf("timed out: coalesced=%d, want %d", counters().DendrogramCoalesced, clients-1)
		}
		time.Sleep(time.Millisecond)
	}
	release()
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d of %d concurrent cold queries failed", bad.Load(), clients)
	}
	c := counters()
	if c.TreeBuilds != 1 {
		t.Fatalf("TreeBuilds = %d, want exactly 1", c.TreeBuilds)
	}
	if c.CoalescedTotal != clients-1 {
		t.Fatalf("coalesced_total = %d, want %d", c.CoalescedTotal, clients-1)
	}
	if c.CoreDistBuilds != 1 || c.MSTBuilds != 1 || c.DendrogramBuilds != 1 {
		t.Fatalf("builds: core=%d mst=%d dendro=%d, want 1/1/1", c.CoreDistBuilds, c.MSTBuilds, c.DendrogramBuilds)
	}

	// Warm phase: the same clients read an eps ladder (MST weight
	// quantiles) from the warm dataset, buffered and as NDJSON; then one
	// sweep over three minPts and the equivalent loop of per-cell queries
	// run. Every answer must be 200, every stream must end with its
	// trailer, and the loop must agree with the sweep cell for cell.
	probe, err := parclust.HDBSCAN(testPoints(400), 10)
	if err != nil {
		t.Fatal(err)
	}
	ws := make([]float64, len(probe.MST))
	for i, e := range probe.MST {
		ws[i] = e.W
	}
	slices.Sort(ws)
	var epsList []float64
	for _, q := range []float64{0.5, 0.7, 0.8, 0.9, 0.95} {
		epsList = append(epsList, ws[int(q*float64(len(ws)-1))])
	}
	modes := []string{"", "application/x-ndjson"}
	type reply struct {
		code int
		body []byte
		err  error
	}
	fetch := func(path, accept string) reply {
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			return reply{err: err}
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			return reply{err: err}
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return reply{resp.StatusCode, body, err}
	}
	replies := make([][]reply, clients)
	for cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, accept := range modes {
				for i := range epsList {
					path := fmt.Sprintf("/v1/datasets/cold/hdbscan?minpts=10&eps=%g", epsList[(cl+i)%len(epsList)])
					replies[cl] = append(replies[cl], fetch(path, accept))
				}
			}
		}()
	}
	wg.Wait()
	for cl, rs := range replies {
		for i, r := range rs {
			if r.err != nil || r.code != http.StatusOK {
				t.Fatalf("warm client %d query %d: status %d, error %v", cl, i, r.code, r.err)
			}
			if i >= len(epsList) { // the NDJSON half
				ndjsonLines(t, r.body)
			}
		}
	}

	minPts := []int{10, 15, 20}
	sweepBody, err := json.Marshal(map[string]any{"minpts": minPts, "eps": epsList})
	if err != nil {
		t.Fatal(err)
	}
	var sweep sweepResult
	if code, raw := ts.postSweep("cold", string(sweepBody), ""); code != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", code, raw)
	} else if err := json.Unmarshal(raw, &sweep); err != nil {
		t.Fatal(err)
	}
	if len(sweep.Cells) != len(minPts)*len(epsList) {
		t.Fatalf("sweep returned %d cells, want %d", len(sweep.Cells), len(minPts)*len(epsList))
	}
	for _, cell := range sweep.Cells {
		var got labelsResponse
		path := fmt.Sprintf("/v1/datasets/cold/hdbscan?minpts=%d&eps=%g&labels=false", cell.MinPts, cell.Eps)
		if code := ts.get(path, &got); code != http.StatusOK {
			t.Fatalf("per-cell query %s: status %d", path, code)
		}
		if got.NumClusters != cell.NumClusters || got.NumNoise != cell.NumNoise {
			t.Fatalf("per-cell query %s: %d clusters, %d noise; sweep cell says %d, %d",
				path, got.NumClusters, got.NumNoise, cell.NumClusters, cell.NumNoise)
		}
	}
}

// TestDaemonEvictUnderLoad evicts and re-uploads a dataset while query
// goroutines hammer it: every query must either succeed against a pinned
// Index or 404 cleanly — never crash, corrupt, or observe a half-freed
// dataset. Run under -race in CI.
func TestDaemonEvictUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; the dedicated CI race step runs it without -short")
	}
	ts := newTestServer(t, Config{})
	pts := testPoints(200)
	if code := ts.upload("churn", pts, ""); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	want, err := parclust.HDBSCAN(pts, 5)
	if err != nil {
		t.Fatal(err)
	}
	wantLabels := want.ClustersAt(1.5).Labels

	const (
		readers = 4
		iters   = 60
		churns  = 30
	)
	var wg sync.WaitGroup
	errs := make(chan string, readers*iters)
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var got labelsResponse
				code := ts.get("/v1/datasets/churn/hdbscan?minpts=5&eps=1.5", &got)
				switch code {
				case http.StatusOK:
					if len(got.Labels) != len(wantLabels) {
						errs <- fmt.Sprintf("query under churn: %d labels, want %d", len(got.Labels), len(wantLabels))
						return
					}
					for j := range wantLabels {
						if got.Labels[j] != wantLabels[j] {
							errs <- fmt.Sprintf("query under churn: label[%d] differs", j)
							return
						}
					}
				case http.StatusNotFound:
					// evicted between requests; fine
				default:
					errs <- fmt.Sprintf("query under churn: status %d", code)
					return
				}
			}
		}()
	}
	for i := 0; i < churns; i++ {
		ts.do(http.MethodDelete, "/v1/datasets/churn", nil, "", nil)
		if code := ts.upload("churn", pts, ""); code != http.StatusCreated {
			t.Fatalf("re-upload %d: status %d", i, code)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestDaemonAdmissionAndLRU exercises the -max-bytes budget end to end:
// datasets beyond the budget evict the least recently used one, and a
// dataset larger than the whole budget is refused with 507.
func TestDaemonAdmissionAndLRU(t *testing.T) {
	// Budget sized for two ~120-point datasets but not three.
	probe, err := parclust.NewIndex(testPoints(120), nil)
	if err != nil {
		t.Fatal(err)
	}
	per := probe.ApproxBytes()
	ts := newTestServer(t, Config{MaxBytes: 2*per + per/2})

	for _, name := range []string{"a", "b"} {
		if code := ts.upload(name, testPoints(120), ""); code != http.StatusCreated {
			t.Fatalf("upload %s: status %d", name, code)
		}
	}
	// Touch "a" so "b" is the LRU victim.
	ts.get("/v1/datasets/a/knn?q=0&k=2", nil)
	if code := ts.upload("c", testPoints(120), ""); code != http.StatusCreated {
		t.Fatalf("upload c: status %d", code)
	}
	if code := ts.get("/v1/datasets/b", nil); code != http.StatusNotFound {
		t.Fatalf("expected b evicted, got status %d", code)
	}
	for _, name := range []string{"a", "c"} {
		if code := ts.get("/v1/datasets/"+name, nil); code != http.StatusOK {
			t.Fatalf("dataset %s missing after LRU eviction, status %d", name, code)
		}
	}
	// A dataset bigger than the whole budget is refused outright.
	if code := ts.upload("huge", testPoints(2000), ""); code != http.StatusInsufficientStorage {
		t.Fatalf("oversized upload: status %d, want 507", code)
	}
	var stats struct {
		Registry registryJSON `json:"registry"`
	}
	if code := ts.get("/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if stats.Registry.Datasets != 2 || stats.Registry.Evictions != 1 {
		t.Fatalf("registry stats: %+v, want 2 datasets / 1 eviction", stats.Registry)
	}
}

// TestDaemonBroadcast fans one HDBSCAN cut out across all datasets and
// checks each slice against the per-dataset endpoint.
func TestDaemonBroadcast(t *testing.T) {
	ts := newTestServer(t, Config{})
	sets := map[string]parclust.Points{
		"alpha": parclust.GenerateGaussianMixture(150, 2, 2, 1),
		"beta":  parclust.GenerateGaussianMixture(250, 2, 4, 2),
	}
	for name, pts := range sets {
		if code := ts.upload(name, pts, ""); code != http.StatusCreated {
			t.Fatalf("upload %s: status %d", name, code)
		}
	}
	var got struct {
		Results []broadcastEntry `json:"results"`
	}
	if code := ts.get("/v1/broadcast/hdbscan?minpts=5&eps=1.5", &got); code != http.StatusOK {
		t.Fatalf("broadcast: status %d", code)
	}
	if len(got.Results) != len(sets) {
		t.Fatalf("broadcast covered %d datasets, want %d", len(got.Results), len(sets))
	}
	for _, res := range got.Results {
		if res.Error != "" {
			t.Fatalf("broadcast %s: %s", res.Dataset, res.Error)
		}
		var single labelsResponse
		path := fmt.Sprintf("/v1/datasets/%s/hdbscan?minpts=5&eps=1.5&labels=false", res.Dataset)
		if code := ts.get(path, &single); code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, code)
		}
		if res.NumClusters != single.NumClusters || res.NumNoise != single.NumNoise {
			t.Fatalf("broadcast %s: %d/%d, single query %d/%d",
				res.Dataset, res.NumClusters, res.NumNoise, single.NumClusters, single.NumNoise)
		}
		if res.N != sets[res.Dataset].N {
			t.Fatalf("broadcast %s: n=%d, want %d", res.Dataset, res.N, sets[res.Dataset].N)
		}
	}
}

// TestDaemonBroadcastColdNoDeadlock hammers the broadcast fan-out while
// every dataset is cold at several minPts values, racing fan-out bodies
// against singleflight stage-build leaders. Regression for the leapfrog-
// steal deadlock: fan-out bodies block on engine build synchronization,
// so they must run as plain goroutines, never as work-stealing scheduler
// tasks (a build leader's Sync could steal one and park on a flight only
// it can complete).
func TestDaemonBroadcastColdNoDeadlock(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; the dedicated CI race step runs it without -short")
	}
	ts := newTestServer(t, Config{})
	const datasets = 3
	for i := range datasets {
		if code := ts.upload(fmt.Sprintf("cold%d", i), parclust.GenerateGaussianMixture(250+50*i, 2, 3, int64(i)), ""); code != http.StatusCreated {
			t.Fatalf("upload cold%d: status %d", i, code)
		}
	}
	done := make(chan struct{})
	errs := make(chan string, 64)
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				client := ts.Client()
				getOK := func(path string) {
					resp, err := client.Get(ts.URL + path)
					if err != nil {
						errs <- err.Error()
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Sprintf("GET %s: status %d", path, resp.StatusCode)
					}
				}
				for it := 0; it < 4; it++ {
					mp := 3 + (g+it)%5
					getOK(fmt.Sprintf("/v1/broadcast/hdbscan?minpts=%d&eps=1.0", mp))
					getOK(fmt.Sprintf("/v1/datasets/cold%d/hdbscan?minpts=%d&eps=1.0&labels=false", it%datasets, mp))
				}
			}(g)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("broadcast over cold datasets deadlocked")
	}
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestDaemonErrors covers the input-validation surface.
func TestDaemonErrors(t *testing.T) {
	ts := newTestServer(t, Config{})
	if code := ts.upload("ok", testPoints(50), ""); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	cases := []struct {
		method, path string
		body         string
		contentType  string
		want         int
	}{
		{"GET", "/v1/datasets/missing/hdbscan?minpts=5&eps=1", "", "", http.StatusNotFound},
		{"GET", "/v1/datasets/ok/hdbscan?eps=1", "", "", http.StatusBadRequest},    // missing minpts
		{"GET", "/v1/datasets/ok/hdbscan?minpts=5", "", "", http.StatusBadRequest}, // no eps / minclustersize
		{"GET", "/v1/datasets/ok/hdbscan?minpts=5&eps=1&algo=nope", "", "", http.StatusBadRequest},
		{"GET", "/v1/datasets/ok/hdbscan?minpts=999&eps=1", "", "", http.StatusBadRequest}, // minPts > n
		{"GET", "/v1/datasets/ok/dbscan?minpts=5", "", "", http.StatusBadRequest},          // missing eps
		{"GET", "/v1/datasets/ok/knn?q=-1&k=3", "", "", http.StatusBadRequest},
		{"GET", "/v1/datasets/ok/knn?q=0&k=0", "", "", http.StatusBadRequest},
		{"GET", "/v1/datasets/ok/knn?q=4294967296&k=3", "", "", http.StatusBadRequest},   // would alias to 0 if truncated
		{"GET", "/v1/datasets/ok/range?q=4294967296&r=1", "", "", http.StatusBadRequest}, // ditto
		{"GET", "/v1/datasets/ok/range?q=0&r=-2", "", "", http.StatusBadRequest},
		{"GET", "/v1/datasets/ok/emst?algo=quantum", "", "", http.StatusBadRequest},
		{"GET", "/v1/datasets/ok/optics?minpts=2000000000", "", "", http.StatusBadRequest},         // minPts > n, not a 2e9-entry heap per chunk
		{"GET", "/v1/datasets/ok/dbscan?minpts=5&eps=1&star=yes", "", "", http.StatusBadRequest},   // malformed bool must not silently flip semantics
		{"GET", "/v1/datasets/ok/hdbscan?minpts=5&eps=1&labels=no", "", "", http.StatusBadRequest}, // ditto
		{"DELETE", "/v1/datasets/missing", "", "", http.StatusNotFound},
		{"PUT", "/v1/datasets/bad%20name", `{"points":[[1,2]]}`, "application/json", http.StatusBadRequest},
		{"PUT", "/v1/datasets/empty", `{"points":[]}`, "application/json", http.StatusBadRequest},
		{"PUT", "/v1/datasets/ragged", `{"points":[[1,2],[3]]}`, "application/json", http.StatusBadRequest},
		{"PUT", "/v1/datasets/badmetric", `{"points":[[1,2]],"metric":"warp"}`, "application/json", http.StatusBadRequest},
		{"PUT", "/v1/datasets/nonfinite", `{"points":[[1e999,2]]}`, "application/json", http.StatusBadRequest},
		{"PUT", "/v1/datasets/badcsv", "1,2\nx,y\n", "text/csv", http.StatusBadRequest},
	}
	for _, tc := range cases {
		var body []byte
		if tc.body != "" {
			body = []byte(tc.body)
		}
		if code := ts.do(tc.method, tc.path, body, tc.contentType, nil); code != tc.want {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, code, tc.want)
		}
	}
	// A k beyond the point count answers every point instead of sizing a
	// 2e9-entry heap.
	var knn struct {
		Neighbors []neighborJSON `json:"neighbors"`
	}
	if code := ts.get("/v1/datasets/ok/knn?q=0&k=2000000000", &knn); code != http.StatusOK || len(knn.Neighbors) != 50 {
		t.Errorf("knn k=2e9: status %d, %d neighbors, want 200 with 50", code, len(knn.Neighbors))
	}
	// Health check still fine after the abuse.
	if code := ts.get("/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
}
