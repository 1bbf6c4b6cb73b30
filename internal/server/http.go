package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"github.com/pglp/panda/internal/policy"
	"github.com/pglp/panda/internal/server/ingest"
)

// Server exposes the surveillance backend over HTTP as the typed /v2
// protocol of the wire package: batch reporting, cursor pagination, a
// uniform {error, code} envelope, and inline policy renegotiation on
// stale versions (see API.md for the full contract and httpv2.go for
// the handlers).
type Server struct {
	db  *DB
	mgr *policy.Manager
	// queue is the async ingestion pipeline behind POST /v2/reports'
	// ?mode=async; nil when async ingest is disabled (async requests
	// then fall back to synchronous handling).
	queue *ingest.Queue
}

// Options configures the optional server subsystems.
type Options struct {
	// AsyncIngest enables the early-acknowledgement mode of
	// POST /v2/reports: a bounded queue with background workers that
	// batch-apply into the Store (see the ingest package).
	AsyncIngest bool
	// IngestWorkers is the number of drain workers; <= 0 uses
	// GOMAXPROCS. Only meaningful with AsyncIngest.
	IngestWorkers int
	// IngestQueueDepth bounds the queue in records; <= 0 uses
	// ingest.DefaultQueueDepth. Only meaningful with AsyncIngest. Half
	// of it is each user's pending budget, the fairness bound that keeps
	// a hot client from starving everyone else into 429s.
	IngestQueueDepth int
}

// NewServer wires a database and a policy manager with async ingest
// disabled.
func NewServer(db *DB, mgr *policy.Manager) (*Server, error) {
	return NewServerOpts(db, mgr, Options{})
}

// NewServerOpts wires a database and a policy manager under explicit
// options. With Options.AsyncIngest the server owns an ingestion queue;
// call DrainIngest before closing the store so acknowledged batches are
// applied.
func NewServerOpts(db *DB, mgr *policy.Manager, o Options) (*Server, error) {
	if db == nil || mgr == nil {
		return nil, errors.New("server: nil db or policy manager")
	}
	s := &Server{db: db, mgr: mgr}
	if o.AsyncIngest {
		depth := o.IngestQueueDepth
		if depth <= 0 {
			depth = ingest.DefaultQueueDepth
		}
		// Stripe-pin the drain workers when the store exposes its shard
		// fan-out (sharded memory store, striped WAL): coalesced batches
		// then stay within each worker's stripe subset.
		shards := 0
		if sh, ok := db.Store().(interface{ NumShards() int }); ok {
			shards = sh.NumShards()
		}
		q, err := ingest.New(db.Store(), ingest.Config{
			Workers:        o.IngestWorkers,
			QueueDepth:     depth,
			Shards:         shards,
			MaxUserPending: depth / 2,
		})
		if err != nil {
			return nil, err
		}
		s.queue = q
	}
	return s, nil
}

// Ingest returns the async ingestion queue, nil when async ingest is
// disabled.
func (s *Server) Ingest() *ingest.Queue { return s.queue }

// DrainIngest stops the async ingestion queue and waits for every
// queued batch to be applied to the Store; if ctx expires first, the
// remainder is discarded and ctx's error returned. It is a no-op when
// async ingest is disabled. Call it during graceful shutdown after the
// HTTP server stops accepting requests and before the store is closed.
func (s *Server) DrainIngest(ctx context.Context) error {
	if s.queue == nil {
		return nil
	}
	return s.queue.Close(ctx)
}

// Handler returns the HTTP routing for the server. Every response —
// success or error — is a struct from the wire package; errors are the
// uniform {error, code} envelope written by v2Error.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/reports", s.handleV2Reports)
	mux.HandleFunc("GET /v2/healthz", s.handleV2Healthz)
	mux.HandleFunc("GET /v2/ingest/stats", s.handleV2IngestStats)
	mux.HandleFunc("GET /v2/analytics/stats", s.handleV2AnalyticsStats)
	mux.HandleFunc("GET /v2/records", s.handleV2Records)
	mux.HandleFunc("GET /v2/policy", s.handleV2Policy)
	mux.HandleFunc("POST /v2/infected", s.handleV2Infected)
	mux.HandleFunc("GET /v2/healthcode", s.handleV2HealthCode)
	mux.HandleFunc("GET /v2/density", s.handleV2Density)
	mux.HandleFunc("GET /v2/density/series", s.handleV2DensitySeries)
	mux.HandleFunc("GET /v2/exposure", s.handleV2Exposure)
	mux.HandleFunc("GET /v2/census", s.handleV2Census)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers already sent; nothing more to do.
		return
	}
}

// writeCounts writes one of the analytics count answers (wire's
// DensityResponse, DensitySeriesResponse or ExposureResponse) with its
// direct encoder, through a pooled buffer and with an exact
// Content-Length. The bytes are those writeJSON would write. Write
// errors go unhandled, as in writeJSON.
func writeCounts(w http.ResponseWriter, v interface{ AppendJSON([]byte) []byte }) {
	bp := bodyBufs.Get().(*[]byte)
	defer putBodyBuf(bp)
	*bp = v.AppendJSON((*bp)[:0])
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(*bp)))
	_, _ = w.Write(*bp)
}

// --- central query-parameter parsing and range validation ---
//
// Every handler parses its query string once, with r.URL.Query(), and
// reads parameters through these helpers so range rules live in one
// place: timesteps are non-negative, time ranges are ordered, windows
// are positive, block dimensions are positive.

// queryInt parses a required integer parameter.
func queryInt(q url.Values, key string) (int, error) {
	raw := q.Get(key)
	if raw == "" {
		return 0, fmt.Errorf("missing query parameter %q", key)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %v", key, err)
	}
	return v, nil
}

// queryIntMin parses a required integer parameter and rejects values
// below min.
func queryIntMin(q url.Values, key string, min int) (int, error) {
	v, err := queryInt(q, key)
	if err != nil {
		return 0, err
	}
	if v < min {
		return 0, fmt.Errorf("parameter %q must be >= %d, got %d", key, min, v)
	}
	return v, nil
}

// queryIntOpt parses an optional integer parameter: absent returns def;
// present values below min are rejected.
func queryIntOpt(q url.Values, key string, def, min int) (int, error) {
	if q.Get(key) == "" {
		return def, nil
	}
	return queryIntMin(q, key, min)
}

// queryTimeRange parses t0 and t1 and enforces 0 <= t0 <= t1. The
// engine refuses a span of more than analytics.MaxSeriesSpan steps.
func queryTimeRange(q url.Values) (t0, t1 int, err error) {
	if t0, err = queryIntMin(q, "t0", 0); err != nil {
		return 0, 0, err
	}
	if t1, err = queryIntMin(q, "t1", 0); err != nil {
		return 0, 0, err
	}
	if t0 > t1 {
		return 0, 0, fmt.Errorf("inverted time range [%d, %d]", t0, t1)
	}
	return t0, t1, nil
}

// queryBlocks parses block_rows and block_cols, both required positive.
func queryBlocks(q url.Values) (br, bc int, err error) {
	if br, err = queryIntMin(q, "block_rows", 1); err != nil {
		return 0, 0, err
	}
	if bc, err = queryIntMin(q, "block_cols", 1); err != nil {
		return 0, 0, err
	}
	return br, bc, nil
}
