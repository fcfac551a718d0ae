// Command parclustd serves clustering queries over HTTP: upload named
// datasets, then answer HDBSCAN*/DBSCAN/OPTICS/EMST/k-NN/range queries
// from each dataset's memoized stage pipeline. Datasets live in an LRU
// registry under a -max-bytes admission budget; concurrent cold queries
// for the same stage coalesce into a single build.
//
// Usage:
//
//	parclustd -addr :8650 -max-bytes $((1<<30))
//
// Upload and query:
//
//	curl -X PUT localhost:8650/v1/datasets/demo -H 'Content-Type: application/json' \
//	     -d '{"points": [[0,0],[0,1],[1,0],[9,9],[9,8],[8,9]]}'
//	curl 'localhost:8650/v1/datasets/demo/hdbscan?minpts=2&eps=1.5'
//	curl 'localhost:8650/v1/stats'
//
// With -data-dir the daemon keeps a persistent stage store: uploads and
// memory-budget evictions write versioned, checksummed snapshots there
// (see internal/store), and a restarted daemon lazily reloads them on
// first query, serving byte-identical responses with zero stage rebuilds.
//
// Overload protection is opt-in per mechanism: -query-timeout bounds one
// query (504 on expiry, its cold build cooperatively aborted),
// -rate-qps/-rate-burst rate-limit per tenant (429), -max-cold-builds
// bounds concurrent cold stage builds (503 while warm queries keep
// answering), and -tenant-max-bytes caps one tenant's resident bytes
// (507). Every shed response carries Retry-After.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes, then
// in-flight queries get -drain to finish, then every resident dataset is
// persisted (with -data-dir) so the next start serves them warm.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"parclust/internal/daemon"
)

var (
	addrFlag       = flag.String("addr", ":8650", "listen address")
	maxBytesFlag   = flag.Int64("max-bytes", 1<<30, "dataset registry memory budget in bytes (0 = unlimited): uploads are admitted against Index.ApproxBytes estimates, evicting idle datasets LRU-first, and refused with 507 when everything resident is pinned by in-flight queries")
	maxUploadFlag  = flag.Int64("max-upload-bytes", 1<<30, "largest accepted upload request body in bytes")
	sweepCellsFlag = flag.Int("sweep-max-cells", 10000, "largest minpts x eps grid one POST /v1/datasets/{name}/sweep request may ask for")
	drainFlag      = flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight queries")
	dataDirFlag    = flag.String("data-dir", "", "snapshot directory for the persistent stage store (empty = in-memory only): uploads and shutdown persist datasets there, restarts reload them lazily with zero stage rebuilds")
	spillFlag      = flag.Bool("spill", true, "with -data-dir, write a warm snapshot when the memory budget evicts a dataset, so its computed stages survive the eviction")

	queryTimeoutFlag  = flag.Duration("query-timeout", 0, "deadline for one dataset query including any cold stage builds it triggers (0 = unlimited): an expired query answers 504 and its cold build is cooperatively aborted")
	rateQPSFlag       = flag.Float64("rate-qps", 0, "per-tenant request rate limit in requests/second (0 = unlimited): tenants are the X-Tenant header or the remote host, excess requests answer 429 with Retry-After")
	rateBurstFlag     = flag.Int("rate-burst", 0, "token-bucket burst size for -rate-qps (0 = ceil(rate-qps))")
	maxColdBuildsFlag = flag.Int("max-cold-builds", 0, "concurrently admitted cold stage builds across all datasets (0 = unlimited): excess cold builds answer 503 with Retry-After while warm queries keep answering")
	tenantBytesFlag   = flag.Int64("tenant-max-bytes", 0, "per-tenant resident dataset byte quota (0 = unlimited): an upload over quota answers 507 with Retry-After")
)

func main() {
	flag.Parse()
	srv, err := daemon.New(daemon.Config{
		MaxBytes:       *maxBytesFlag,
		MaxUploadBytes: *maxUploadFlag,
		MaxSweepCells:  *sweepCellsFlag,
		DataDir:        *dataDirFlag,
		Spill:          *spillFlag && *dataDirFlag != "",
		QueryTimeout:   *queryTimeoutFlag,
		RateQPS:        *rateQPSFlag,
		RateBurst:      *rateBurstFlag,
		MaxColdBuilds:  *maxColdBuildsFlag,
		TenantMaxBytes: *tenantBytesFlag,
	})
	if err != nil {
		log.Fatalf("start: %v", err)
	}
	hs := &http.Server{
		Addr:              *addrFlag,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	if *dataDirFlag != "" {
		log.Printf("parclustd listening on %s (max-bytes=%d, data-dir=%s, spill=%v)",
			*addrFlag, *maxBytesFlag, *dataDirFlag, *spillFlag)
	} else {
		log.Printf("parclustd listening on %s (max-bytes=%d)", *addrFlag, *maxBytesFlag)
	}

	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("serve: %v", err)
		}
	case <-ctx.Done():
	}

	log.Printf("shutting down, draining in-flight queries for up to %s", *drainFlag)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainFlag)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		log.Printf("drain incomplete, closing: %v", err)
		hs.Close()
	}
	if *dataDirFlag != "" {
		// Persist after the drain so the snapshots include every stage the
		// final queries memoized; the next start serves them warm.
		n, err := srv.PersistAll()
		if err != nil {
			log.Printf("persist on shutdown: %v", err)
		}
		log.Printf("persisted %d dataset snapshot(s) to %s", n, *dataDirFlag)
	}
	log.Printf("parclustd stopped")
}
