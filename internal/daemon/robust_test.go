package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"parclust"
	"parclust/internal/engine"
	"parclust/internal/faultinject"
)

// robustSection mirrors the "robustness" object of /v1/stats.
type robustSection struct {
	RateLimited   int64 `json:"rate_limited"`
	Overloaded    int64 `json:"overloaded"`
	Timeouts      int64 `json:"timeouts"`
	QuotaRejected int64 `json:"quota_rejected"`
	BuildAborts   int64 `json:"build_aborts"`
	BuildPanics   int64 `json:"build_panics"`
}

func (ts *testServer) robustStats() robustSection {
	ts.t.Helper()
	var resp struct {
		Robustness robustSection `json:"robustness"`
	}
	if code := ts.get("/v1/stats", &resp); code != http.StatusOK {
		ts.t.Fatalf("stats: status %d", code)
	}
	return resp.Robustness
}

func (ts *testServer) datasetCounters(name string) countersJSON {
	ts.t.Helper()
	var resp struct {
		Counters countersJSON `json:"counters"`
	}
	if code := ts.get("/v1/datasets/"+name, &resp); code != http.StatusOK {
		ts.t.Fatalf("info %s: status %d", name, code)
	}
	return resp.Counters
}

// doHeaders is ts.do with request headers and access to the response.
func (ts *testServer) doHeaders(method, path string, hdr map[string]string) *http.Response {
	ts.t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, nil)
	if err != nil {
		ts.t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		ts.t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// TestQueryCancelAbortsColdBuild is the disconnected-client e2e: a client
// starts a cold HDBSCAN query, the build is held open at the flight
// boundary, and the client disconnects. The daemon's context plumbing must
// cooperatively abort the build — no stage output is published, the abort
// is counted — and the next identical request rebuilds and succeeds.
func TestQueryCancelAbortsColdBuild(t *testing.T) {
	ts := newTestServer(t, Config{})
	if code := ts.upload("cancel", testPoints(2000), ""); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	engine.TestBuildHook = func(stage string) {
		if stage == "hier" {
			close(entered)
			<-release
		}
	}
	t.Cleanup(func() { engine.TestBuildHook = nil })

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		ts.URL+"/v1/datasets/cancel/hdbscan?minpts=5&eps=0.5", nil)
	if err != nil {
		t.Fatal(err)
	}
	reqDone := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		reqDone <- err
	}()

	<-entered
	cancel()
	if err := <-reqDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("client saw %v, want context.Canceled", err)
	}
	// Give the server-side cancellation a moment to reach the flight's ctx
	// watcher, then let the held build run into its first checkpoint.
	time.Sleep(100 * time.Millisecond)
	close(release)

	deadline := time.Now().Add(10 * time.Second)
	for ts.robustStats().BuildAborts < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("build abort never counted: %+v", ts.robustStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	c := ts.datasetCounters("cancel")
	if c.TreeBuilds != 0 || c.DendrogramBuilds != 0 {
		t.Fatalf("aborted build published stages: tree=%d dendro=%d, want 0/0",
			c.TreeBuilds, c.DendrogramBuilds)
	}

	// The flight is gone and the memo unpoisoned: the same query succeeds.
	engine.TestBuildHook = nil
	var out labelsResponse
	if code := ts.get("/v1/datasets/cancel/hdbscan?minpts=5&eps=0.5", &out); code != http.StatusOK {
		t.Fatalf("retry after abort: status %d", code)
	}
	if len(out.Labels) != 2000 {
		t.Fatalf("retry returned %d labels, want 2000", len(out.Labels))
	}
	if c := ts.datasetCounters("cancel"); c.TreeBuilds != 1 || c.DendrogramBuilds != 1 {
		t.Fatalf("rebuild counters: tree=%d dendro=%d, want 1/1", c.TreeBuilds, c.DendrogramBuilds)
	}
}

// TestRateLimitPerTenant proves the token bucket sheds per tenant: one
// tenant exhausting its burst gets 429 + Retry-After while another tenant
// and the health probe keep answering.
func TestRateLimitPerTenant(t *testing.T) {
	ts := newTestServer(t, Config{RateQPS: 0.1, RateBurst: 2})
	if code := ts.upload("rl", testPoints(50), ""); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	// The upload carried no X-Tenant, so it drew from the remote-host
	// bucket; tagged tenants start with full bursts.
	for i := 0; i < 2; i++ {
		if resp := ts.doHeaders(http.MethodGet, "/v1/datasets/rl", map[string]string{"X-Tenant": "a"}); resp.StatusCode != http.StatusOK {
			t.Fatalf("tenant a request %d: status %d", i, resp.StatusCode)
		}
	}
	resp := ts.doHeaders(http.MethodGet, "/v1/datasets/rl", map[string]string{"X-Tenant": "a"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("tenant a over burst: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	if resp := ts.doHeaders(http.MethodGet, "/v1/datasets/rl", map[string]string{"X-Tenant": "b"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant b blocked by tenant a's bucket: status %d", resp.StatusCode)
	}
	if resp := ts.doHeaders(http.MethodGet, "/healthz", map[string]string{"X-Tenant": "a"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz rate-limited: status %d", resp.StatusCode)
	}
	if got := ts.robustStats().RateLimited; got < 1 {
		t.Fatalf("rate_limited = %d, want >= 1", got)
	}
}

// TestColdBuildGateShedsWhileWarmServes saturates the single cold-build
// slot with a held build and proves (a) another cold query is shed with
// 503 + Retry-After and (b) 16 concurrent warm cut-cache queries against a
// different dataset keep answering throughout.
func TestColdBuildGateShedsWhileWarmServes(t *testing.T) {
	ts := newTestServer(t, Config{MaxColdBuilds: 1})
	for _, name := range []string{"warm", "cold1", "cold2"} {
		if code := ts.upload(name, testPoints(400), ""); code != http.StatusCreated {
			t.Fatalf("upload %s: status %d", name, code)
		}
	}
	// Warm one dataset fully (pipeline + cut cache) before arming the hook.
	if code := ts.get("/v1/datasets/warm/hdbscan?minpts=5&eps=0.5", nil); code != http.StatusOK {
		t.Fatalf("warming query: status %d", code)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	var enterOnce sync.Once
	engine.TestBuildHook = func(stage string) {
		if stage == "hier" {
			enterOnce.Do(func() { close(entered) })
			<-release
		}
	}
	t.Cleanup(func() {
		engine.TestBuildHook = nil
		select {
		case <-release:
		default:
			close(release)
		}
	})

	heldDone := make(chan int, 1)
	go func() {
		code, err := ts.tryGet("/v1/datasets/cold1/hdbscan?minpts=5&eps=0.5", nil)
		if err != nil {
			t.Error(err)
		}
		heldDone <- code
	}()
	<-entered // cold1's leader now holds the only build slot

	resp := ts.doHeaders(http.MethodGet, "/v1/datasets/cold2/hdbscan?minpts=5&eps=0.5", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second cold build: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 response missing Retry-After")
	}

	var wg sync.WaitGroup
	codes := make([]int, 16)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/datasets/warm/hdbscan?minpts=5&eps=0.5", nil)
			r, err := ts.Client().Do(req)
			if err != nil {
				codes[i] = -1
				return
			}
			io.Copy(io.Discard, r.Body)
			r.Body.Close()
			codes[i] = r.StatusCode
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("warm query %d during saturation: status %d, want 200", i, code)
		}
	}

	close(release)
	if code := <-heldDone; code != http.StatusOK {
		t.Fatalf("held cold build finished with status %d, want 200", code)
	}
	if got := ts.robustStats().Overloaded; got < 1 {
		t.Fatalf("overloaded = %d, want >= 1", got)
	}
}

// TestQueryTimeout proves an expired query deadline surfaces as 504 and is
// counted, using a delay fault to make the cold build reliably outlast the
// deadline.
func TestQueryTimeout(t *testing.T) {
	defer faultinject.Reset()
	ts := newTestServer(t, Config{QueryTimeout: 100 * time.Millisecond})
	if code := ts.upload("slow", testPoints(2000), ""); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	faultinject.Activate("engine.build", faultinject.Fault{
		Mode: faultinject.Delay, Delay: 400 * time.Millisecond, Count: 1,
	})
	resp := ts.doHeaders(http.MethodGet, "/v1/datasets/slow/hdbscan?minpts=5&eps=0.5", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired query: status %d, want 504", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("504 response missing Retry-After")
	}
	if got := ts.robustStats().Timeouts; got != 1 {
		t.Fatalf("timeouts = %d, want 1", got)
	}
	// The fault self-disarmed, but the deadline still applies to retries and
	// a loaded machine could miss it; retry until one lands. A 200 proves
	// the timed-out flight did not poison the pipeline.
	deadline := time.Now().Add(10 * time.Second)
	for {
		code := ts.get("/v1/datasets/slow/hdbscan?minpts=5&eps=0.5", nil)
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query never recovered after timeout: status %d", code)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestTenantByteQuota proves per-tenant resident-byte quotas: a tenant at
// quota gets 507 + Retry-After on its next upload while another tenant is
// admitted, and replacing your own dataset is not double-counted.
func TestTenantByteQuota(t *testing.T) {
	pts := testPoints(300)
	probe, err := parclust.NewIndex(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	quota := probe.ApproxBytes() + probe.ApproxBytes()/2 // room for 1 dataset, not 2

	ts := newTestServer(t, Config{TenantMaxBytes: quota})
	uploadAs := func(tenant, name string) *http.Response {
		rows := make([][]float64, pts.N)
		for i := 0; i < pts.N; i++ {
			rows[i] = append([]float64(nil), pts.Data[i*2:(i+1)*2]...)
		}
		body, _ := json.Marshal(uploadRequest{Points: rows})
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/datasets/"+name, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", tenant)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	if resp := uploadAs("t1", "first"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first upload: status %d", resp.StatusCode)
	}
	resp := uploadAs("t1", "second")
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("over-quota upload: status %d, want 507", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("507 response missing Retry-After")
	}
	if resp := uploadAs("t2", "other"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("other tenant blocked by t1's quota: status %d", resp.StatusCode)
	}
	// Replacing your own dataset only counts the delta, not a second copy.
	if resp := uploadAs("t1", "first"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("self-replacement: status %d, want 201", resp.StatusCode)
	}
	if got := ts.robustStats().QuotaRejected; got != 1 {
		t.Fatalf("quota_rejected = %d, want 1", got)
	}
}

// TestOverBudgetUploadRetryAfter proves the registry-budget 507 carries
// Retry-After: over-budget is transient (evictions free space), so clients
// are told when to come back.
func TestOverBudgetUploadRetryAfter(t *testing.T) {
	ts := newTestServer(t, Config{MaxBytes: 1})
	pts := testPoints(100)
	rows := make([][]float64, pts.N)
	for i := 0; i < pts.N; i++ {
		rows[i] = append([]float64(nil), pts.Data[i*2:(i+1)*2]...)
	}
	body, _ := json.Marshal(uploadRequest{Points: rows})
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/datasets/big", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("over-budget upload: status %d, want 507", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("507 response missing Retry-After")
	}
}
