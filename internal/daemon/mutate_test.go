package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"parclust"
	"parclust/internal/engine"
)

// insertBody marshals rows into the insert endpoint's JSON body.
func insertBody(t *testing.T, rows [][]float64) []byte {
	t.Helper()
	b, err := json.Marshal(insertRequest{Points: rows})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func deleteBody(t *testing.T, ids []int64) []byte {
	t.Helper()
	b, err := json.Marshal(deleteRequest{IDs: ids})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMutationEndpoints drives the insert/delete endpoints and checks the
// mutated dataset answers like a fresh Index over the surviving rows.
func TestMutationEndpoints(t *testing.T) {
	ts := newTestServer(t, Config{})
	pts := testPoints(100)
	if code := ts.upload("mut", pts, ""); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}

	var ins struct {
		IDs []int64 `json:"ids"`
		N   int     `json:"n"`
	}
	rows := [][]float64{{9.5, 9.5}, {9.6, 9.4}, {-3.25, 8.125}}
	if code := ts.do(http.MethodPost, "/v1/datasets/mut/points", insertBody(t, rows), "application/json", &ins); code != http.StatusOK {
		t.Fatalf("insert: status %d", code)
	}
	if ins.N != 103 || len(ins.IDs) != 3 || ins.IDs[0] != 100 {
		t.Fatalf("insert response: %+v", ins)
	}

	// CSV body path, mirroring upload.
	if code := ts.do(http.MethodPost, "/v1/datasets/mut/points", []byte("1.5,2.5\n"), "text/csv", &ins); code != http.StatusOK {
		t.Fatalf("csv insert: status %d", code)
	}
	if ins.N != 104 || ins.IDs[0] != 103 {
		t.Fatalf("csv insert response: %+v", ins)
	}

	var del struct {
		Deleted int `json:"deleted"`
		N       int `json:"n"`
	}
	if code := ts.do(http.MethodDelete, "/v1/datasets/mut/points", deleteBody(t, []int64{0, 50, 103}), "application/json", &del); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	if del.Deleted != 3 || del.N != 101 {
		t.Fatalf("delete response: %+v", del)
	}

	// Error contract: unknown ids are 404 and all-or-nothing, malformed
	// bodies and dimension mismatches are 400.
	if code := ts.do(http.MethodDelete, "/v1/datasets/mut/points", deleteBody(t, []int64{1, 103}), "application/json", nil); code != http.StatusNotFound {
		t.Fatalf("delete of dead id: status %d, want 404", code)
	}
	if code := ts.do(http.MethodDelete, "/v1/datasets/mut/points", []byte("{"), "application/json", nil); code != http.StatusBadRequest {
		t.Fatalf("malformed delete: status %d, want 400", code)
	}
	if code := ts.do(http.MethodPost, "/v1/datasets/mut/points", insertBody(t, [][]float64{{1, 2, 3}}), "application/json", nil); code != http.StatusBadRequest {
		t.Fatalf("wrong-dimension insert: status %d, want 400", code)
	}
	if code := ts.do(http.MethodPost, "/v1/datasets/nosuch/points", insertBody(t, rows), "application/json", nil); code != http.StatusNotFound {
		t.Fatalf("insert into unknown dataset: status %d, want 404", code)
	}

	// The mutated dataset must answer like a fresh Index over the
	// equivalent point set: initial rows minus {0,50}, plus the three JSON
	// rows and the CSV row minus the deleted one (ext id 103).
	var want []float64
	for i := 0; i < pts.N; i++ {
		if i == 0 || i == 50 {
			continue
		}
		want = append(want, pts.Data[i*2:(i+1)*2]...)
	}
	want = append(want, 9.5, 9.5, 9.6, 9.4, -3.25, 8.125)
	fresh, err := parclust.NewIndex(parclust.Points{Data: want, N: len(want) / 2, Dim: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{0, 42, 100} {
		var got struct {
			Neighbors []struct {
				ID   int32   `json:"id"`
				Dist float64 `json:"dist"`
			} `json:"neighbors"`
		}
		path := fmt.Sprintf("/v1/datasets/mut/knn?q=%d&k=3", q)
		if code := ts.get(path, &got); code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, code)
		}
		wantN, err := fresh.KNN(int32(q), 3)
		if err != nil {
			t.Fatal(err)
		}
		for i, nb := range got.Neighbors {
			if nb.ID != wantN[i].Idx || nb.Dist != wantN[i].Dist {
				t.Fatalf("knn(%d)[%d] = %+v, want %+v", q, i, nb, wantN[i])
			}
		}
	}
}

// TestHDBSCANOnDrainedDataset: once every point of a dataset is deleted,
// the HDBSCAN* endpoint answers both the stability extraction and an eps
// cut with an empty clustering.
func TestHDBSCANOnDrainedDataset(t *testing.T) {
	ts := newTestServer(t, Config{})
	if code := ts.upload("drain", testPoints(3), ""); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	if code := ts.do(http.MethodDelete, "/v1/datasets/drain/points", deleteBody(t, []int64{0, 1, 2}), "application/json", nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	for _, q := range []string{"minpts=1&minclustersize=2", "minpts=1&eps=1"} {
		var res labelsResponse
		if code := ts.get("/v1/datasets/drain/hdbscan?"+q, &res); code != http.StatusOK {
			t.Fatalf("%s: status %d", q, code)
		}
		if res.NumClusters != 0 || len(res.Labels) != 0 {
			t.Fatalf("%s: %+v", q, res)
		}
	}
}

// TestMutationInvalidationCounters pins the stage-epoch invalidation
// contract at the daemon level: one mutation patches the tree exactly once
// (no rebuild), forces exactly k core-distance rebuilds on the next
// k-minpts sweep, and serves zero stale cut-cache hits.
func TestMutationInvalidationCounters(t *testing.T) {
	ts := newTestServer(t, Config{})
	if code := ts.upload("inval", testPoints(300), ""); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	counters := func() countersJSON {
		var info struct {
			Counters countersJSON `json:"counters"`
		}
		if code := ts.get("/v1/datasets/inval", &info); code != http.StatusOK {
			t.Fatalf("info: status %d", code)
		}
		return info.Counters
	}
	sweep := func() {
		body := []byte(`{"minpts": [3, 7, 11], "eps": [0.5, 1.0, 2.0], "labels": false}`)
		if code := ts.do(http.MethodPost, "/v1/datasets/inval/sweep", body, "application/json", nil); code != http.StatusOK {
			t.Fatalf("sweep: status %d", code)
		}
	}

	sweep()
	warm := counters()
	if warm.TreeBuilds != 1 || warm.CoreDistBuilds != 3 || warm.CutBuilds != 9 {
		t.Fatalf("warmup counters off: %+v", warm)
	}

	if code := ts.do(http.MethodPost, "/v1/datasets/inval/points", insertBody(t, [][]float64{{0.25, 0.75}}), "application/json", nil); code != http.StatusOK {
		t.Fatalf("insert: status %d", code)
	}
	c := counters()
	if c.TreePatches != 1 {
		t.Fatalf("tree_patches = %d, want exactly 1", c.TreePatches)
	}
	if c.TreeBuilds != 1 {
		t.Fatalf("tree_builds = %d after mutation, want still 1 (patch, not rebuild)", c.TreeBuilds)
	}
	if c.MutationEpoch != 1 {
		t.Fatalf("mutation_epoch = %d, want 1", c.MutationEpoch)
	}

	sweep()
	c = counters()
	if got := c.CoreDistBuilds - warm.CoreDistBuilds; got != 3 {
		t.Fatalf("core_dist rebuilds after mutation = %d, want k=3", got)
	}
	if got := c.DendrogramBuilds - warm.DendrogramBuilds; got != 3 {
		t.Fatalf("dendrogram rebuilds after mutation = %d, want 3", got)
	}
	if c.CutHits != warm.CutHits {
		t.Fatalf("cut_hits moved %d -> %d across the mutation: stale cut-cache results served", warm.CutHits, c.CutHits)
	}
	if c.CutBuilds != 18 {
		t.Fatalf("cut_builds = %d, want 18 (9 warm + 9 rebuilt)", c.CutBuilds)
	}
}

// TestConcurrentInsertSweep409 pins the bugfix for queries racing a
// mutation: a query whose pipeline build straddles an insert answers 409
// Conflict, never a payload computed against invalidated state (and never
// a 500). The engine build hook holds the query's hierarchy build open
// while the insert lands.
func TestConcurrentInsertSweep409(t *testing.T) {
	ts := newTestServer(t, Config{})
	if code := ts.upload("race", testPoints(200), ""); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}

	entered := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	engine.TestBuildHook = func(stage string) {
		if stage == "hier" {
			once.Do(func() { close(entered) })
			<-gate
		}
	}
	t.Cleanup(func() { engine.TestBuildHook = nil })

	type result struct {
		code int
	}
	done := make(chan result, 1)
	go func() {
		code, err := ts.tryGet("/v1/datasets/race/hdbscan?minpts=5&eps=1.0&labels=false", nil)
		if err != nil {
			t.Error(err)
		}
		done <- result{code}
	}()

	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		close(gate)
		t.Fatal("query never reached the hierarchy build")
	}
	// The query is parked inside its hierarchy build; the insert must not
	// block behind it (the epoch bumps before the build lock) and must
	// flip the in-flight query to a conflict.
	if code := ts.do(http.MethodPost, "/v1/datasets/race/points", insertBody(t, [][]float64{{5, 5}}), "application/json", nil); code != http.StatusOK {
		t.Fatalf("insert during in-flight query: status %d", code)
	}
	close(gate)
	res := <-done
	if res.code != http.StatusConflict {
		t.Fatalf("racing query: status %d, want 409", res.code)
	}

	// A clean retry (no concurrent mutation) succeeds.
	engine.TestBuildHook = nil
	if code := ts.get("/v1/datasets/race/hdbscan?minpts=5&eps=1.0&labels=false", nil); code != http.StatusOK {
		t.Fatalf("retry after conflict: status %d", code)
	}
	var stats struct {
		Robustness struct {
			Mutations int64 `json:"mutations"`
			Conflicts int64 `json:"conflicts"`
		} `json:"robustness"`
	}
	if code := ts.get("/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if stats.Robustness.Mutations != 1 || stats.Robustness.Conflicts != 1 {
		t.Fatalf("robustness counters: %+v, want 1 mutation and 1 conflict", stats.Robustness)
	}
}

// TestMutatedWarmRestart pins snapshot durability across mutations at the
// daemon level: a mutated dataset persists its compacted live set, and a
// brand-new server over the same data dir answers every query
// byte-identically from exactly one snapshot load.
func TestMutatedWarmRestart(t *testing.T) {
	dir := t.TempDir()
	queries := []string{
		"/v1/datasets/mwr/hdbscan?minpts=5&eps=1.2",
		"/v1/datasets/mwr/emst",
		"/v1/datasets/mwr/knn?q=0&k=4",
		"/v1/datasets/mwr/range?q=3&r=1.5",
	}

	ts1 := newTestServer(t, Config{DataDir: dir})
	if code := ts1.upload("mwr", testPoints(400), ""); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	// Warm the pipeline, then mutate: the upload-time snapshot on disk is
	// now stale in both points and stages.
	if _, code := ts1.raw(http.MethodGet, queries[0]); code != http.StatusOK {
		t.Fatalf("warmup: status %d", code)
	}
	if code := ts1.do(http.MethodPost, "/v1/datasets/mwr/points", insertBody(t, [][]float64{{7.5, -2.5}, {7.25, -2.75}}), "application/json", nil); code != http.StatusOK {
		t.Fatalf("insert: status %d", code)
	}
	if code := ts1.do(http.MethodDelete, "/v1/datasets/mwr/points", deleteBody(t, []int64{1, 2, 3}), "application/json", nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	want := make([][]byte, len(queries))
	for i, q := range queries {
		body, code := ts1.raw(http.MethodGet, q)
		if code != http.StatusOK {
			t.Fatalf("GET %s: status %d (%s)", q, code, body)
		}
		want[i] = body
	}
	// PersistAll must see the dirty index as stale (the content hash alone
	// would match the pre-mutation file) and write the compacted live set.
	if n, err := ts1.srv.PersistAll(); err != nil || n != 1 {
		t.Fatalf("PersistAll: n=%d err=%v", n, err)
	}

	ts2 := newTestServer(t, Config{DataDir: dir})
	for i, q := range queries {
		body, code := ts2.raw(http.MethodGet, q)
		if code != http.StatusOK {
			t.Fatalf("restart GET %s: status %d (%s)", q, code, body)
		}
		if !bytes.Equal(body, want[i]) {
			t.Fatalf("GET %s differs after restart:\n  before: %s\n  after:  %s", q, want[i], body)
		}
	}
	var st storeStatsResponse
	if code := ts2.get("/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.Store.Loads != 1 || st.Store.LoadFails != 0 {
		t.Fatalf("store stats after mutated restart: %+v", st.Store)
	}
	var info struct {
		Dataset datasetInfo `json:"dataset"`
	}
	if code := ts2.get("/v1/datasets/mwr", &info); code != http.StatusOK {
		t.Fatalf("info: status %d", code)
	}
	if info.Dataset.N != 399 {
		t.Fatalf("restored N = %d, want 399 (400 + 2 inserts - 3 deletes)", info.Dataset.N)
	}
}
