package daemon

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parclust"
	"parclust/internal/engine"
	"parclust/internal/faultinject"
)

// This file is the fault-injection chaos suite: named failure points in
// the store and engine are armed mid-flight to prove the daemon degrades
// instead of corrupting — a failing spill never loses the in-memory Index,
// a slow disk never blocks unrelated warm queries, and a panicking build
// answers 500 exactly once and rebuilds cleanly. CI runs this suite under
// -race in the chaos job.

// TestFailingSpillKeepsServing arms the store.write failure point and
// proves a snapshot-write failure is reported but never fails the upload
// or loses the in-memory Index: the dataset is admitted and queryable.
func TestFailingSpillKeepsServing(t *testing.T) {
	defer faultinject.Reset()
	ts := newTestServer(t, Config{DataDir: t.TempDir()})
	faultinject.Activate("store.write", faultinject.Fault{
		Mode: faultinject.Error, Err: errors.New("injected: disk full"),
	})

	var resp struct {
		Persisted *bool `json:"persisted"`
	}
	pts := testPoints(200)
	rows := make([][]float64, pts.N)
	for i := 0; i < pts.N; i++ {
		rows[i] = append([]float64(nil), pts.Data[i*2:(i+1)*2]...)
	}
	body := []byte(`{"points":` + jsonRows(rows) + `}`)
	if code := ts.do(http.MethodPut, "/v1/datasets/spillfail", body, "application/json", &resp); code != http.StatusCreated {
		t.Fatalf("upload with failing disk: status %d, want 201", code)
	}
	if resp.Persisted == nil || *resp.Persisted {
		t.Fatalf("persisted = %v, want false (the write failed)", resp.Persisted)
	}
	// The in-memory Index is intact: the full pipeline runs from RAM.
	var out labelsResponse
	if code := ts.get("/v1/datasets/spillfail/hdbscan?minpts=5&eps=0.5", &out); code != http.StatusOK {
		t.Fatalf("query after failed spill: status %d", code)
	}
	if len(out.Labels) != 200 {
		t.Fatalf("query returned %d labels, want 200", len(out.Labels))
	}
}

// jsonRows renders [[x,y],...] without pulling in a marshal dependency on
// the test's hot path.
func jsonRows(rows [][]float64) string {
	b := make([]byte, 0, len(rows)*16)
	b = append(b, '[')
	for i, row := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range row {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, []byte(fmt.Sprintf("%g", v))...)
		}
		b = append(b, ']')
	}
	b = append(b, ']')
	return string(b)
}

// TestSlowDiskDoesNotBlockWarmQueries arms a store.read delay and proves a
// cold snapshot load stalled on disk I/O never blocks warm queries against
// a resident dataset: the warm queries all complete while the cold load is
// still sleeping in the driver.
func TestSlowDiskDoesNotBlockWarmQueries(t *testing.T) {
	defer faultinject.Reset()
	ts := newTestServer(t, Config{DataDir: t.TempDir()})
	for _, name := range []string{"resident", "colddisk"} {
		if code := ts.upload(name, testPoints(200), ""); code != http.StatusCreated {
			t.Fatalf("upload %s: status %d", name, code)
		}
	}
	// Warm the resident dataset, then push the other one out of RAM so its
	// next query must reload the snapshot.
	if code := ts.get("/v1/datasets/resident/hdbscan?minpts=5&eps=0.5", nil); code != http.StatusOK {
		t.Fatalf("warming query: status %d", code)
	}
	if !ts.srv.Registry().Evict("colddisk") {
		t.Fatal("evict colddisk failed")
	}

	faultinject.Activate("store.read", faultinject.Fault{
		Mode: faultinject.Delay, Delay: 2 * time.Second, Count: 1,
	})
	coldDone := make(chan int, 1)
	go func() {
		code, err := ts.tryGet("/v1/datasets/colddisk/hdbscan?minpts=5&eps=0.5", nil)
		if err != nil {
			t.Error(err)
		}
		coldDone <- code
	}()

	// The warm queries must finish while the cold load is still sleeping.
	for i := 0; i < 8; i++ {
		select {
		case code := <-coldDone:
			t.Fatalf("cold load finished (status %d) before warm queries — delay fault did not arm?", code)
		default:
		}
		if code := ts.get("/v1/datasets/resident/hdbscan?minpts=5&eps=0.5", nil); code != http.StatusOK {
			t.Fatalf("warm query %d during slow cold load: status %d", i, code)
		}
	}
	if code := <-coldDone; code != http.StatusOK {
		t.Fatalf("cold load after delay: status %d, want 200", code)
	}
}

// TestPanickingBuildAnswers500Once injects a panic into a stage build and
// proves the daemon answers 500 exactly once — no crash, no poisoned memo
// — and the next identical query rebuilds cleanly.
func TestPanickingBuildAnswers500Once(t *testing.T) {
	ts := newTestServer(t, Config{})
	if code := ts.upload("panicky", testPoints(300), ""); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	fired := false
	engine.TestBuildHook = func(stage string) {
		if stage == "hier" && !fired {
			fired = true
			panic("injected: build blew up")
		}
	}
	t.Cleanup(func() { engine.TestBuildHook = nil })

	var errResp struct {
		Error string `json:"error"`
	}
	if code := ts.get("/v1/datasets/panicky/hdbscan?minpts=5&eps=0.5", &errResp); code != http.StatusInternalServerError {
		t.Fatalf("panicking build: status %d, want 500", code)
	}
	if errResp.Error == "" {
		t.Fatal("500 response carries no error body")
	}
	if got := ts.robustStats().BuildPanics; got != 1 {
		t.Fatalf("build_panics = %d, want 1", got)
	}
	var out labelsResponse
	if code := ts.get("/v1/datasets/panicky/hdbscan?minpts=5&eps=0.5", &out); code != http.StatusOK {
		t.Fatalf("retry after panic: status %d, want 200", code)
	}
	if len(out.Labels) != 300 {
		t.Fatalf("retry returned %d labels, want 300", len(out.Labels))
	}
}

// TestOverloadStressNoGoroutineLeak drives 64 looping clients for 1.5 s
// into a tightly-limited daemon (2 cold-build slots, a 200 qps per-tenant
// rate limit, a 2 s query deadline) over eight 2,000-point datasets. Even
// clients repeat a warm cut; odd clients rotate minPts across the seven
// cold datasets, so cold builds keep arriving faster than the gate admits
// them; eight tenants share the load. Every request must be served or
// shed (200, 429, 503 or 504), never fail outright, and afterwards the
// goroutine count must settle back to the pre-stress baseline: no flight
// watcher, limiter, or handler goroutine leaks under sustained shedding.
func TestOverloadStressNoGoroutineLeak(t *testing.T) {
	ts := newTestServer(t, Config{
		MaxColdBuilds: 2,
		QueryTimeout:  2 * time.Second,
		RateQPS:       200,
		RateBurst:     20,
	})
	const datasets, minPts = 8, 10
	for i := range datasets {
		if code := ts.upload(fmt.Sprintf("ov%d", i), parclust.GenerateVarden(2000, 2, 42+int64(i)), ""); code != http.StatusCreated {
			t.Fatalf("upload ov%d: status %d", i, code)
		}
	}
	// Warm ov0 and the scheduler/transport pools before taking the
	// baseline, so the measurement sees steady state, not first-use setup.
	warmPath := fmt.Sprintf("/v1/datasets/ov0/hdbscan?minpts=%d&eps=0.5&labels=false", minPts)
	if code := ts.get(warmPath, nil); code != http.StatusOK {
		t.Fatalf("warming query: status %d", code)
	}
	ts.Client().CloseIdleConnections()
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	const clients = 64
	deadline := time.Now().Add(1500 * time.Millisecond)
	var wg sync.WaitGroup
	var served, shed, failed atomic.Int64
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
			defer cl.CloseIdleConnections()
			for i := 0; time.Now().Before(deadline); i++ {
				path := warmPath
				if c%2 == 1 {
					path = fmt.Sprintf("/v1/datasets/ov%d/hdbscan?minpts=%d&eps=0.5&labels=false",
						1+(c/2+i)%(datasets-1), minPts+i%5)
				}
				req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
				if err != nil {
					failed.Add(1)
					return
				}
				req.Header.Set("X-Tenant", fmt.Sprintf("t%d", c%8))
				resp, err := cl.Do(req)
				if err != nil {
					failed.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					served.Add(1)
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					shed.Add(1)
					time.Sleep(5 * time.Millisecond) // honor the backoff
				case http.StatusGatewayTimeout:
					shed.Add(1)
				default:
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("overload stress: served=%d shed=%d failed=%d", served.Load(), shed.Load(), failed.Load())
	if failed.Load() != 0 {
		t.Fatalf("%d requests failed outright instead of being served or shed", failed.Load())
	}
	if served.Load() == 0 || shed.Load() == 0 {
		t.Fatal("overload stress must both serve and shed — limits are miscalibrated")
	}

	// Settle loop: transports, flight watchers, and timed-out handlers need
	// a beat to unwind before the count is meaningful.
	ts.Client().CloseIdleConnections()
	settle := time.Now().Add(15 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= baseline+3 {
			break
		}
		if time.Now().After(settle) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d, baseline %d — leak?\n%s", now, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
		ts.Client().CloseIdleConnections()
	}
}
