package daemon

import (
	"net/http"
	"strings"
	"testing"
)

// TestQueryParamValidation sweeps every malformed-parameter path: each one
// must be a 400 written before any stage work runs.
func TestQueryParamValidation(t *testing.T) {
	ts := newTestServer(t, Config{})
	if code := ts.upload("p", testPoints(60), ""); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	bad := []string{
		"/v1/datasets/p/hdbscan?minpts=abc&eps=1",
		"/v1/datasets/p/hdbscan?minpts=3",
		"/v1/datasets/p/hdbscan?minpts=3&eps=xyz",
		"/v1/datasets/p/hdbscan?minpts=3&minclustersize=0",
		"/v1/datasets/p/hdbscan?minpts=3&minclustersize=abc",
		"/v1/datasets/p/hdbscan?minpts=3&eps=1&algo=bogus",
		"/v1/datasets/p/hdbscan?minpts=3&eps=1&labels=maybe",
		"/v1/datasets/p/dbscan?eps=1",
		"/v1/datasets/p/dbscan?minpts=3",
		"/v1/datasets/p/dbscan?minpts=3&eps=1&star=perhaps",
		"/v1/datasets/p/dbscan?minpts=3&eps=1&labels=maybe",
		"/v1/datasets/p/optics?minpts=3&eps=bad",
		"/v1/datasets/p/emst?algo=bogus",
		"/v1/datasets/p/emst?edges=maybe",
		"/v1/datasets/p/knn?q=0",
		"/v1/datasets/p/knn?k=3",
		"/v1/datasets/p/knn?q=99999999999999999999&k=3",
		"/v1/datasets/p/range?q=0",
		"/v1/datasets/p/range?q=0&r=bad",
		"/v1/datasets/p/range?q=0&r=1&ids=maybe",
		"/v1/broadcast/hdbscan?minpts=3",
		"/v1/broadcast/hdbscan?eps=1",
	}
	for _, p := range bad {
		if code := ts.get(p, nil); code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", p, code)
		}
	}
	if code := ts.get("/v1/datasets/p/optics?minpts=", nil); code != http.StatusBadRequest {
		t.Errorf("empty minpts: want 400")
	}
	// Every 400 above must have been answered before any stage work.
	var stats struct {
		Datasets map[string]struct {
			Counters countersJSON `json:"counters"`
		} `json:"datasets"`
	}
	if code := ts.get("/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if c := stats.Datasets["p"].Counters; c.TreeBuilds != 0 || c.CoreDistBuilds != 0 || c.MSTBuilds != 0 || c.DendrogramBuilds != 0 {
		t.Errorf("bad-path sweep built stages: tree=%d core=%d mst=%d dendrogram=%d, want all 0",
			c.TreeBuilds, c.CoreDistBuilds, c.MSTBuilds, c.DendrogramBuilds)
	}

	// Every EMST algorithm name is accepted and answers the same tree.
	for _, algo := range []string{"memogfk", "gfk", "naive", "boruvka", "delaunay2d", "wspdboruvka"} {
		var out struct {
			NumEdges int `json:"num_edges"`
		}
		p := "/v1/datasets/p/emst?edges=false&algo=" + algo
		if code := ts.get(p, &out); code != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", p, code)
		} else if out.NumEdges != 59 {
			t.Errorf("GET %s: %d edges, want 59", p, out.NumEdges)
		}
	}

	// The registry accessor exposes the live store to embedding code.
	if got := ts.srv.Registry().Stats().Entries; got != 1 {
		t.Fatalf("Registry().Stats().Entries = %d, want 1", got)
	}
}

// TestUploadNameValidation pins the dataset-name rule against path
// traversal: names that resolve to directory entries (".", "..",
// dot-prefixed hidden files) must be rejected before any body parsing,
// because a dataset name becomes a snapshot file stem verbatim.
func TestUploadNameValidation(t *testing.T) {
	ts := newTestServer(t, Config{})
	// "." and ".." are sent percent-encoded: ServeMux path-cleans the
	// literal segments away before routing, but %2E-encoded dots survive
	// cleaning and reach the handler as the decoded traversal name — the
	// exact vector the leading-dot rule exists for.
	bad := []string{
		"%2E", "%2E%2E", "%2E%2E%2E",
		"...", ".hidden", ".tmp-x-1", "..sneaky", ".pcsnap",
		strings.Repeat("a", 129),
	}
	body := []byte(`{"points":[[0,0],[1,1],[2,2]]}`)
	for _, p := range bad {
		if code := ts.do(http.MethodPut, "/v1/datasets/"+p, body, "application/json", nil); code != http.StatusBadRequest {
			t.Errorf("upload %q: status %d, want 400", p, code)
		}
	}
	// Interior and trailing dots stay legal — only the leading dot is the
	// directory-entry hazard.
	for _, name := range []string{"v1.2.3", "trailing.", "a"} {
		if code := ts.do(http.MethodPut, "/v1/datasets/"+name, body, "application/json", nil); code != http.StatusCreated {
			t.Errorf("upload %q: status %d, want 201", name, code)
		}
	}
}
