package daemon

import (
	"context"
	"errors"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"parclust"
	"parclust/internal/engine"
)

// This file is the daemon's overload-protection layer: per-tenant request
// rate limiting (429), a bounded cold-build admission gate (503), query
// deadlines (504), and per-tenant resident-byte quotas (507). Every
// mechanism is off by default and independently enabled by its Config
// field; every shed response carries Retry-After so well-behaved clients
// back off instead of hammering. Warm queries — answered from memoized
// stages and cut caches — never consult the build gate, so a saturated
// cold-build budget degrades cold traffic only.

// maxTrackedTenants bounds the rate limiter's bucket table. When the table
// fills (an adversary cycling spoofed tenant keys), it is reset wholesale:
// momentarily refilling honest buckets is a far smaller failure than
// unbounded memory growth.
const maxTrackedTenants = 4096

// tbucket is one tenant's token bucket, guarded by the owning limiter.
type tbucket struct {
	tokens float64
	last   time.Time
}

// limiter is a token-bucket rate limiter keyed by tenant. A request takes
// one token; tokens refill at qps up to burst.
type limiter struct {
	qps   float64
	burst float64

	mu      sync.Mutex
	buckets map[string]*tbucket
}

func newLimiter(qps float64, burst int) *limiter {
	if burst <= 0 {
		burst = int(math.Ceil(qps))
		if burst < 1 {
			burst = 1
		}
	}
	return &limiter{qps: qps, burst: float64(burst), buckets: make(map[string]*tbucket)}
}

// allow takes a token for key, reporting how long the caller should wait
// before retrying when the bucket is empty.
func (l *limiter) allow(key string, now time.Time) (ok bool, retryAfter time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, found := l.buckets[key]
	if !found {
		if len(l.buckets) >= maxTrackedTenants {
			l.buckets = make(map[string]*tbucket)
		}
		b = &tbucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	} else {
		b.tokens = math.Min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.qps)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / l.qps * float64(time.Second))
}

// tenantKey identifies the client for rate limiting and byte quotas: the
// X-Tenant header when present, else the host part of the remote address
// (so untagged clients are limited per source, not globally).
func tenantKey(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// setRetryAfter writes a Retry-After header of at least one second.
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// isQueryPath reports whether the request is a dataset query (a
// sub-resource like /hdbscan or /sweep, or a broadcast fan-out) — the
// requests the query deadline applies to. Uploads and admin probes are
// exempt: a large upload legitimately outlives a query deadline, and
// health/stats must answer even on a saturated box.
func isQueryPath(r *http.Request) bool {
	if strings.HasPrefix(r.URL.Path, "/v1/broadcast/") {
		return true
	}
	rest, ok := strings.CutPrefix(r.URL.Path, "/v1/datasets/")
	return ok && strings.Contains(rest, "/")
}

// withRobustness wraps the handler tree with admission control: the rate
// limiter sheds before any routing or body read, and the query deadline is
// installed on the request context so it propagates through the Index into
// cooperative stage-build cancellation. /healthz bypasses both — a
// liveness probe that 429s is worse than useless.
func (s *Server) withRobustness(h http.Handler) http.Handler {
	if s.lim == nil && s.cfg.QueryTimeout <= 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			h.ServeHTTP(w, r)
			return
		}
		if s.lim != nil {
			if ok, retry := s.lim.allow(tenantKey(r), time.Now()); !ok {
				s.rateLimited.Add(1)
				setRetryAfter(w, retry)
				writeError(w, http.StatusTooManyRequests, "rate limit exceeded, retry after %v", retry.Round(time.Millisecond))
				return
			}
		}
		if s.cfg.QueryTimeout > 0 && isQueryPath(r) {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.QueryTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h.ServeHTTP(w, r)
	})
}

// installGate points ix's engine at the server's shared cold-build
// semaphore. No-op when MaxColdBuilds is unset.
func (s *Server) installGate(ix *parclust.Index) {
	if s.buildSem == nil {
		return
	}
	sem := s.buildSem
	ix.SetBuildGate(func() (func(), bool) {
		select {
		case sem <- struct{}{}:
			return func() { <-sem }, true
		default:
			return nil, false
		}
	})
}

// queryError maps an Index query error to its HTTP response. A client that
// is already gone gets nothing (there is no one to write to); a deadline
// expiry is a 504; a cold build shed by the saturated build gate is a 503
// with Retry-After; a recovered build panic is a 500; everything else is
// the caller's 400.
func (s *Server) queryError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
		// A retry may hit warm: another query can finish the build the
		// deadline cut short, so a short backoff is the honest hint.
		setRetryAfter(w, time.Second)
		writeError(w, http.StatusGatewayTimeout, "query deadline (%v) exceeded", s.cfg.QueryTimeout)
	case r.Context().Err() != nil:
		// Client disconnected mid-query; its cold build (if any) has been
		// cooperatively aborted by the context plumbing.
	case errors.Is(err, parclust.ErrOverloaded):
		s.overloaded.Add(1)
		setRetryAfter(w, time.Second)
		writeError(w, http.StatusServiceUnavailable, "cold build capacity saturated, retry later")
	default:
		var bp *engine.BuildPanicError
		if errors.As(err, &bp) {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

// tenantBytes sums the bytes the registry charges for tenant's resident
// datasets, growth from inserts and sweeps included, excluding skipName
// (the dataset an upload is about to replace).
func (s *Server) tenantBytes(tenant, skipName string) int64 {
	var total int64
	for _, key := range s.reg.Keys() {
		if key == skipName {
			continue
		}
		if h, ok := s.reg.Peek(key); ok {
			if h.Value().tenant == tenant {
				total += h.Bytes()
			}
			h.Release()
		}
	}
	return total
}

// robustJSON is the "robustness" section of /v1/stats: the shed/timeout
// counters of the admission layer plus the engines' cooperative-abort
// counters aggregated across resident datasets.
type robustJSON struct {
	QueryTimeoutMS int64 `json:"query_timeout_ms"`
	MaxColdBuilds  int   `json:"max_cold_builds"`
	RateLimited    int64 `json:"rate_limited"`
	Overloaded     int64 `json:"overloaded"`
	Timeouts       int64 `json:"timeouts"`
	QuotaRejected  int64 `json:"quota_rejected"`
	BuildAborts    int64 `json:"build_aborts"`
	BuildPanics    int64 `json:"build_panics"`
	Mutations      int64 `json:"mutations"`
	Conflicts      int64 `json:"conflicts"`
}

func (s *Server) robustStats() robustJSON {
	out := robustJSON{
		QueryTimeoutMS: s.cfg.QueryTimeout.Milliseconds(),
		MaxColdBuilds:  s.cfg.MaxColdBuilds,
		RateLimited:    s.rateLimited.Load(),
		Overloaded:     s.overloaded.Load(),
		Timeouts:       s.timeouts.Load(),
		QuotaRejected:  s.quotaRejected.Load(),
		Mutations:      s.mutations.Load(),
		Conflicts:      s.conflicts.Load(),
	}
	for _, key := range s.reg.Keys() {
		if h, ok := s.reg.Peek(key); ok {
			c := h.Value().idx.Stats()
			out.BuildAborts += c.BuildAborts
			out.BuildPanics += c.BuildPanics
			h.Release()
		}
	}
	return out
}
