package serve

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mlpeering/internal/bgp"
	"mlpeering/internal/churn"
	"mlpeering/internal/topology"
)

// Config parameterizes a gateway.
type Config struct {
	// Topology / Churn configure the world the reconciler churns.
	Topology topology.Config
	Churn    churn.Config
	// Workers sizes the window-close worker pool (0: GOMAXPROCS).
	Workers int
	// MaxInFlight bounds concurrently-served requests; requests over
	// the cap are rejected 429 + Retry-After. 0 disables the cap.
	MaxInFlight int
	// MaxAge is the Cache-Control max-age; 0 serves `no-cache`
	// (always revalidate — correct default while epochs commit every
	// few hundred milliseconds).
	MaxAge time.Duration
	// EpochInterval paces snapshot publication: the reconciler holds
	// each committed window at least this long before the next commit.
	// 0 publishes as fast as windows close.
	EpochInterval time.Duration
	// Logf receives reconciler progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// Gateway serves epoch-pinned inference snapshots. The read path is
// lock-free: a request pins the current snapshot with one atomic
// pointer load, bumps one atomic in-flight counter, and writes bytes
// that were precomputed at publish — no mutex, no RWMutex, no map
// writes. Publication is a single atomic pointer swap (RCU): readers
// that loaded the old snapshot finish against it unperturbed.
type Gateway struct {
	cfg Config

	cur      atomic.Pointer[Snapshot]
	inflight atomic.Int64

	ready     chan struct{}
	readyOnce sync.Once

	cacheControl string

	// testHold, when non-nil, parks every admitted data request until
	// the channel closes — the saturation and drain tests use it to
	// pin requests in flight deterministically. Nil in production.
	testHold <-chan struct{}
}

// New builds a gateway; Run starts its reconciler.
func New(cfg Config) *Gateway {
	cc := "public, no-cache"
	if cfg.MaxAge > 0 {
		cc = fmt.Sprintf("public, max-age=%d, must-revalidate", int(cfg.MaxAge.Seconds()))
	}
	return &Gateway{cfg: cfg, ready: make(chan struct{}), cacheControl: cc}
}

// Current returns the currently-published snapshot (nil before the
// first commit). One atomic load; safe from any goroutine.
func (g *Gateway) Current() *Snapshot { return g.cur.Load() }

// Ready returns a channel closed when the first snapshot publishes.
func (g *Gateway) Ready() <-chan struct{} { return g.ready }

// publish swaps in the next committed snapshot.
func (g *Gateway) publish(s *Snapshot) {
	g.cur.Store(s)
	g.readyOnce.Do(func() { close(g.ready) })
}

// InFlight reports the number of requests currently admitted.
func (g *Gateway) InFlight() int64 { return g.inflight.Load() }

// Drain blocks until no request is in flight or ctx expires.
func (g *Gateway) Drain(ctx context.Context) error {
	for {
		if g.inflight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Handler returns the gateway's HTTP handler. The router is
// hand-rolled rather than a ServeMux: net/http's mux read-locks its
// pattern table on every request, and the gateway's contract is a
// zero-lock read path.
func (g *Gateway) Handler() http.Handler {
	return http.HandlerFunc(g.serveHTTP)
}

func (g *Gateway) serveHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if r.URL.Path == "/healthz" {
		// Liveness bypasses admission control: load probes must see
		// the process alive even when the data plane is saturated.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		if r.Method != http.MethodHead {
			fmt.Fprintln(w, "ok")
		}
		return
	}

	if cap := int64(g.cfg.MaxInFlight); cap > 0 {
		if g.inflight.Add(1) > cap {
			g.inflight.Add(-1)
			w.Header().Set("Retry-After", "1")
			http.Error(w, "too many in-flight requests", http.StatusTooManyRequests)
			return
		}
	} else {
		g.inflight.Add(1)
	}
	defer g.inflight.Add(-1)

	if hold := g.testHold; hold != nil {
		<-hold
	}

	s := g.cur.Load()
	if s == nil {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "no snapshot committed yet", http.StatusServiceUnavailable)
		return
	}

	var body []byte
	switch {
	case r.URL.Path == "/v1/epoch":
		body = s.epochJSON
	case r.URL.Path == "/v1/stats":
		body = s.statsJSON
	case r.URL.Path == "/v1/mesh":
		body = s.meshJSON
	case r.URL.Path == "/v1/ixps":
		body = s.ixpsJSON
	case strings.HasPrefix(r.URL.Path, "/v1/ixp/"):
		name := strings.TrimPrefix(r.URL.Path, "/v1/ixp/")
		b, ok := RenderIXP(s.Epoch, s.Result, name)
		if !ok {
			http.Error(w, "unknown IXP", http.StatusNotFound)
			return
		}
		body = b
	case r.URL.Path == "/v1/link":
		a, errA := parseASN(r.URL.Query().Get("a"))
		b, errB := parseASN(r.URL.Query().Get("b"))
		if errA != nil || errB != nil {
			http.Error(w, "need numeric a= and b= ASN query parameters", http.StatusBadRequest)
			return
		}
		body = RenderLink(s.Epoch, s.Result, a, b)
	case strings.HasPrefix(r.URL.Path, "/v1/as/"):
		asn, err := parseASN(strings.TrimPrefix(r.URL.Path, "/v1/as/"))
		if err != nil {
			http.Error(w, "bad ASN", http.StatusBadRequest)
			return
		}
		body = RenderAS(s.Epoch, s.Result, asn)
	default:
		http.Error(w, "not found", http.StatusNotFound)
		return
	}

	h := w.Header()
	h.Set("ETag", s.ETag)
	h.Set("Cache-Control", g.cacheControl)
	h.Set("Last-Modified", s.Committed.UTC().Format(http.TimeFormat))
	h.Set("X-MLP-Epoch", strconv.FormatUint(s.Epoch, 10))

	if etagMatch(r.Header.Get("If-None-Match"), s.ETag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}

	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	if r.Method != http.MethodHead {
		w.Write(body)
	}
}

// parseASN parses a decimal AS number.
func parseASN(s string) (bgp.ASN, error) {
	n, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, err
	}
	return bgp.ASN(n), nil
}

// etagMatch reports whether an If-None-Match header matches the
// snapshot's strong ETag: `*` matches anything, otherwise any tag in
// the comma-separated list equal to the current tag matches (a weak
// `W/` prefix is stripped first — weak comparison suffices for GET).
func etagMatch(inm, etag string) bool {
	if inm == "" {
		return false
	}
	if strings.TrimSpace(inm) == "*" {
		return true
	}
	for _, cand := range strings.Split(inm, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == etag {
			return true
		}
	}
	return false
}

// WaitShutdown blocks until ctx is cancelled, then gracefully shuts
// srv down, giving in-flight requests up to drain to finish. It is
// cmd/lgserve's termination path. Returns the shutdown error, if any.
func WaitShutdown(ctx context.Context, srv *http.Server, drain time.Duration) error {
	<-ctx.Done()
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	return srv.Shutdown(sctx)
}
