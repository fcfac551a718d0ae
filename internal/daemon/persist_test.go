package daemon

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"parclust"
	"parclust/internal/faultinject"
	"parclust/internal/store"
)

// raw performs one request and returns the exact response body, for
// byte-identity checks across a restart.
func (ts *testServer) raw(method, path string) ([]byte, int) {
	ts.t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, nil)
	if err != nil {
		ts.t.Fatal(err)
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
	return body, resp.StatusCode
}

type storeStatsResponse struct {
	Store storeJSON `json:"store"`
}

// TestDaemonWarmRestart is the tentpole scenario: upload, warm the stage
// pipeline, persist, start a brand-new server over the same data dir, and
// require byte-identical responses with zero stage rebuilds.
func TestDaemonWarmRestart(t *testing.T) {
	dir := t.TempDir()
	queries := []string{
		"/v1/datasets/wr/hdbscan?minpts=5&eps=1.2",
		"/v1/datasets/wr/hdbscan?minpts=5&minclustersize=10",
		"/v1/datasets/wr/emst",
		"/v1/datasets/wr/knn?q=0&k=4",
		"/v1/datasets/wr/range?q=3&r=1.5",
	}

	ts1 := newTestServer(t, Config{DataDir: dir})
	if code := ts1.upload("wr", testPoints(500), ""); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	want := make([][]byte, len(queries))
	for i, q := range queries {
		body, code := ts1.raw(http.MethodGet, q)
		if code != http.StatusOK {
			t.Fatalf("GET %s: status %d (%s)", q, code, body)
		}
		want[i] = body
	}
	if n, err := ts1.srv.PersistAll(); err != nil || n != 1 {
		t.Fatalf("PersistAll: n=%d err=%v", n, err)
	}

	// A brand-new server over the same data dir: the dataset is cold but
	// listed, and the first query reloads it from the snapshot.
	ts2 := newTestServer(t, Config{DataDir: dir})
	var list struct {
		Datasets []datasetInfo `json:"datasets"`
		Cold     []string      `json:"cold"`
	}
	if code := ts2.get("/v1/datasets", &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(list.Datasets) != 0 || len(list.Cold) != 1 || list.Cold[0] != "wr" {
		t.Fatalf("after restart: resident %v, cold %v", list.Datasets, list.Cold)
	}
	// Cold info answers from the snapshot header without loading.
	var info struct {
		Dataset datasetInfo `json:"dataset"`
		Cold    bool        `json:"cold"`
	}
	if code := ts2.get("/v1/datasets/wr", &info); code != http.StatusOK {
		t.Fatalf("cold info: status %d", code)
	}
	if !info.Cold || info.Dataset.N != 500 || info.Dataset.Dim != 2 {
		t.Fatalf("cold info: %+v", info)
	}

	for i, q := range queries {
		body, code := ts2.raw(http.MethodGet, q)
		if code != http.StatusOK {
			t.Fatalf("restart GET %s: status %d (%s)", q, code, body)
		}
		if !bytes.Equal(body, want[i]) {
			t.Fatalf("GET %s differs after restart:\n  before: %s\n  after:  %s", q, want[i], body)
		}
	}

	// The warm restart must not have rebuilt any persisted stage.
	var after struct {
		Counters countersJSON `json:"counters"`
	}
	if code := ts2.get("/v1/datasets/wr", &after); code != http.StatusOK {
		t.Fatalf("info: status %d", code)
	}
	c := after.Counters
	if c.TreeBuilds != 0 || c.CoreDistBuilds != 0 || c.MSTBuilds != 0 || c.DendrogramBuilds != 0 {
		t.Fatalf("stages rebuilt after warm restart: %+v", c)
	}

	var st storeStatsResponse
	if code := ts2.get("/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if !st.Store.Enabled || st.Store.Loads != 1 || st.Store.LoadFails != 0 || st.Store.Snapshots != 1 {
		t.Fatalf("store stats after restart: %+v", st.Store)
	}
}

// TestDaemonSpillReload drives a dataset out of the registry with byte
// pressure and checks the eviction spilled its warm stages: the reloaded
// dataset answers the same query with zero rebuilds.
func TestDaemonSpillReload(t *testing.T) {
	dir := t.TempDir()
	pts := testPoints(400)
	ix, err := parclust.NewIndex(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Budget fits ~1.5 datasets, so the second upload evicts the first.
	budget := ix.ApproxBytes() * 3 / 2
	ts := newTestServer(t, Config{DataDir: dir, MaxBytes: budget})

	if code := ts.upload("a", pts, ""); code != http.StatusCreated {
		t.Fatalf("upload a: status %d", code)
	}
	wantBody, code := ts.raw(http.MethodGet, "/v1/datasets/a/hdbscan?minpts=5&eps=1.2")
	if code != http.StatusOK {
		t.Fatalf("warm a: status %d", code)
	}
	if code := ts.upload("b", parclust.GenerateGaussianMixture(400, 2, 3, 11), ""); code != http.StatusCreated {
		t.Fatalf("upload b: status %d", code)
	}
	if _, ok := ts.srv.Registry().Peek("a"); ok {
		t.Fatal("a still resident; budget did not force the eviction")
	}

	// The reload serves the identical bytes without rebuilding: the spill
	// carried the memoized stages, not just the points.
	gotBody, code := ts.raw(http.MethodGet, "/v1/datasets/a/hdbscan?minpts=5&eps=1.2")
	if code != http.StatusOK {
		t.Fatalf("reload a: status %d (%s)", code, gotBody)
	}
	if !bytes.Equal(gotBody, wantBody) {
		t.Fatal("response differs after spill/reload")
	}
	var info struct {
		Counters countersJSON `json:"counters"`
	}
	if code := ts.get("/v1/datasets/a", &info); code != http.StatusOK {
		t.Fatalf("info a: status %d", code)
	}
	if info.Counters.TreeBuilds != 0 || info.Counters.CoreDistBuilds != 0 ||
		info.Counters.MSTBuilds != 0 || info.Counters.DendrogramBuilds != 0 {
		t.Fatalf("spilled stages were rebuilt: %+v", info.Counters)
	}
	var st storeStatsResponse
	if code := ts.get("/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.Store.Spills < 1 || st.Store.Loads < 1 {
		t.Fatalf("store stats after spill/reload: %+v", st.Store)
	}
}

// TestDaemonSpillReloadRace hammers a budget that holds only one of two
// datasets, so every query round trips spill -> cold load -> admission ->
// re-eviction concurrently. Run under -race in CI; every query must
// succeed (an unadmittable load still serves its own request).
func TestDaemonSpillReloadRace(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; the dedicated CI race step runs it without -short")
	}
	dir := t.TempDir()
	pts := testPoints(80)
	ix, err := parclust.NewIndex(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{DataDir: dir, MaxBytes: ix.ApproxBytes() * 3 / 2})
	for _, name := range []string{"ra", "rb"} {
		if code := ts.upload(name, pts, ""); code != http.StatusCreated {
			t.Fatalf("upload %s: status %d", name, code)
		}
	}

	const workers = 8
	const iters = 25
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			names := []string{"ra", "rb"}
			for i := 0; i < iters; i++ {
				name := names[(w+i)%2]
				var out labelsResponse
				p := fmt.Sprintf("/v1/datasets/%s/hdbscan?minpts=4&eps=1.5", name)
				if code, err := ts.tryGet(p, &out); err != nil || code != http.StatusOK {
					errc <- fmt.Errorf("worker %d iter %d: GET %s: status %d, error %v", w, i, p, code, err)
					return
				}
				if len(out.Labels) != pts.N {
					errc <- fmt.Errorf("worker %d iter %d: %d labels, want %d", w, i, len(out.Labels), pts.N)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestColdLoadKeepsReupload: a cold reload still decoding when the same
// name is re-uploaded must not replace the upload, nor the rows inserted
// into it since, with the older snapshot copy, nor count as a reload.
func TestColdLoadKeepsReupload(t *testing.T) {
	defer faultinject.Reset()
	ts := newTestServer(t, Config{DataDir: t.TempDir()})
	if code := ts.upload("x", testPoints(100), ""); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	ts.srv.Registry().Evict("x")
	faultinject.Activate("store.read", faultinject.Fault{
		Mode: faultinject.Delay, Delay: 400 * time.Millisecond, Count: 1,
	})
	cold := make(chan error, 1)
	go func() {
		code, err := ts.tryGet("/v1/datasets/x/knn?q=0&k=3", nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("cold knn: status %d", code)
		}
		cold <- err
	}()
	// Re-upload only once the cold load is decoding.
	for loading := false; !loading; {
		select {
		case err := <-cold:
			t.Fatalf("the cold load ended before the re-upload (error %v)", err)
		case <-time.After(time.Millisecond):
		}
		ts.srv.loadMu.Lock()
		_, loading = ts.srv.loading["x"]
		ts.srv.loadMu.Unlock()
	}
	if code := ts.upload("x", testPoints(100), ""); code != http.StatusCreated {
		t.Fatalf("re-upload: status %d", code)
	}
	rows := [][]float64{{0.5, 0.5}, {1.5, 1.5}, {2.5, 2.5}}
	if code := ts.do(http.MethodPost, "/v1/datasets/x/points", insertBody(t, rows), "application/json", nil); code != http.StatusOK {
		t.Fatalf("insert: status %d", code)
	}
	if err := <-cold; err != nil {
		t.Fatal(err)
	}
	var info struct {
		Dataset datasetInfo `json:"dataset"`
	}
	if code := ts.get("/v1/datasets/x", &info); code != http.StatusOK || info.Dataset.N != 103 {
		t.Fatalf("after the cold load: status %d, n=%d, want n=103", code, info.Dataset.N)
	}
	h, ok := ts.srv.Registry().Peek("x")
	if !ok {
		t.Fatal("x not resident")
	}
	defer h.Release()
	if h.Value().tenant == "" {
		t.Fatal("the resident x carries no tenant: the snapshot copy replaced the upload")
	}
	// The registry refused the decoded copy, so nothing was reloaded.
	if loads := ts.srv.storeStats().Loads; loads != 0 {
		t.Fatalf("store loads = %d after the re-upload won, want 0", loads)
	}
}

// TestDaemonDeleteRemovesSnapshot pins DELETE semantics with a store:
// forgetting a dataset covers its snapshot file, including a cold dataset
// that is only on disk.
func TestDaemonDeleteRemovesSnapshot(t *testing.T) {
	dir := t.TempDir()
	ts := newTestServer(t, Config{DataDir: dir})
	if code := ts.upload("del", testPoints(60), ""); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	snap := filepath.Join(dir, "del"+store.Ext)
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("upload did not persist a snapshot: %v", err)
	}
	if _, code := ts.raw(http.MethodDelete, "/v1/datasets/del"); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	if _, err := os.Stat(snap); !os.IsNotExist(err) {
		t.Fatalf("snapshot survived DELETE: %v", err)
	}
	if _, code := ts.raw(http.MethodGet, "/v1/datasets/del/emst"); code != http.StatusNotFound {
		t.Fatal("deleted dataset still answers queries")
	}
	if _, code := ts.raw(http.MethodDelete, "/v1/datasets/del"); code != http.StatusNotFound {
		t.Fatal("second DELETE should 404")
	}

	// A cold, disk-only dataset (evicted directly through the registry,
	// bypassing the handler) is still deletable over HTTP.
	if code := ts.upload("colddel", testPoints(60), ""); code != http.StatusCreated {
		t.Fatalf("upload colddel: status %d", code)
	}
	ts.srv.Registry().Evict("colddel")
	if _, code := ts.raw(http.MethodDelete, "/v1/datasets/colddel"); code != http.StatusOK {
		t.Fatal("cold DELETE should succeed")
	}
	if _, err := os.Stat(filepath.Join(dir, "colddel"+store.Ext)); !os.IsNotExist(err) {
		t.Fatal("cold snapshot survived DELETE")
	}
}

// TestDaemonCorruptSnapshotFallsBack damages snapshots and requires clean
// degradation: a truncated stage chunk rebuilds on demand with identical
// results; an unreadable snapshot is a 404, never a panic or wrong labels.
func TestDaemonCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	ts1 := newTestServer(t, Config{DataDir: dir})
	if code := ts1.upload("corr", testPoints(300), ""); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	q := "/v1/datasets/corr/hdbscan?minpts=5&eps=1.2"
	want, code := ts1.raw(http.MethodGet, q)
	if code != http.StatusOK {
		t.Fatalf("warm query: status %d", code)
	}
	if n, err := ts1.srv.PersistAll(); err != nil || n != 1 {
		t.Fatalf("PersistAll: n=%d err=%v", n, err)
	}
	snap := filepath.Join(dir, "corr"+store.Ext)
	full, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}

	// Chop off the tail: the points survive (they are the first chunk),
	// later stage chunks fail their range check and rebuild on demand.
	if err := os.WriteFile(snap, full[:len(full)-len(full)/4], 0o644); err != nil {
		t.Fatal(err)
	}
	ts2 := newTestServer(t, Config{DataDir: dir})
	got, code := ts2.raw(http.MethodGet, q)
	if code != http.StatusOK {
		t.Fatalf("query over truncated snapshot: status %d (%s)", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("truncated snapshot produced different labels")
	}
	var info struct {
		Counters countersJSON `json:"counters"`
	}
	if code := ts2.get("/v1/datasets/corr", &info); code != http.StatusOK {
		t.Fatalf("info: status %d", code)
	}
	rebuilt := info.Counters.TreeBuilds + info.Counters.CoreDistBuilds +
		info.Counters.MSTBuilds + info.Counters.DendrogramBuilds
	if rebuilt == 0 {
		t.Fatal("truncation dropped no stage, the test cut too little")
	}

	// Destroy the header: the snapshot is unusable, the query degrades to
	// a clean 404 and the failure is counted.
	garbage := append([]byte(nil), full...)
	for i := 0; i < 32 && i < len(garbage); i++ {
		garbage[i] ^= 0xa5
	}
	if err := os.WriteFile(snap, garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	ts3 := newTestServer(t, Config{DataDir: dir})
	if _, code := ts3.raw(http.MethodGet, q); code != http.StatusNotFound {
		t.Fatalf("query over garbage snapshot: status %d, want 404", code)
	}
	var st storeStatsResponse
	if code := ts3.get("/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.Store.LoadFails != 1 {
		t.Fatalf("load_failures = %d, want 1", st.Store.LoadFails)
	}
}
