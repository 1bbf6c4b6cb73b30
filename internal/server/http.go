package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policy"
	"github.com/pglp/panda/internal/server/ingest"
)

// Server exposes the surveillance backend over HTTP, in two wire
// versions (see API.md for the full contract).
//
// /v1 — the legacy surface. Wire shapes are frozen and the
// policy_version-0 skip is preserved bug-for-bug, but this release
// tightened two behaviors shared with /v2: parameter ranges are now
// validated (negative t, inverted ranges, non-positive window → 400)
// and health-code windows anchor at an explicit clock (see API.md):
//
//	POST /v1/report      {user, t, x, y, policy_version} → 204
//	GET  /v1/policy?user=ID                              → policy JSON
//	POST /v1/infected    {cells: [...]}                  → {changed: [...]}
//	GET  /v1/healthcode?user=ID&window=W&now=T           → {code}
//	GET  /v1/density?t=T&block_rows=R&block_cols=C       → {counts: [...]}
//	GET  /v1/records?user=ID                             → [records]
//
// /v2 — the typed protocol of the wire package: batch reporting, cursor
// pagination, a uniform {error, code} envelope, and inline policy
// renegotiation on stale versions (see httpv2.go).
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
	// ingest.DefaultQueueDepth. Only meaningful with AsyncIngest.
	IngestQueueDepth int
	// IngestMaxUserPending bounds one user's un-applied records in the
	// queue — the fairness budget that keeps a hot client from starving
	// everyone else into 429s. 0 defaults to half the queue depth;
	// negative disables per-user accounting. Only meaningful with
	// AsyncIngest.
	IngestMaxUserPending int
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
		userCap := o.IngestMaxUserPending
		switch {
		case userCap == 0:
			userCap = depth / 2
		case userCap < 0:
			userCap = 0
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
			MaxUserPending: userCap,
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

// DB exposes the underlying database (the apps query it directly when
// embedded in-process).
func (s *Server) DB() *DB { return s.db }

// Handler returns the HTTP routing for the server: both the legacy /v1
// surface and the typed /v2 surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/report", s.handleReport)
	mux.HandleFunc("GET /v1/policy", s.handlePolicy)
	mux.HandleFunc("POST /v1/infected", s.handleInfected)
	mux.HandleFunc("GET /v1/healthcode", s.handleHealthCode)
	mux.HandleFunc("GET /v1/density", s.handleDensity)
	mux.HandleFunc("GET /v1/records", s.handleRecords)
	mux.HandleFunc("GET /v1/density_series", s.handleDensitySeries)
	mux.HandleFunc("GET /v1/exposure", s.handleExposure)
	mux.HandleFunc("GET /v1/census", s.handleCensus)
	s.routeV2(mux)
	return mux
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers already sent; nothing more to do.
		return
	}
}

// reportRequest is the wire form of a /v1 location report.
type reportRequest struct {
	User          int     `json:"user"`
	T             int     `json:"t"`
	X             float64 `json:"x"`
	Y             float64 `json:"y"`
	PolicyVersion int     `json:"policy_version"`
}

// handleReport ingests one release. Legacy quirk, kept for /v1
// compatibility: policy_version 0 means "unset" and skips the staleness
// check entirely, so old clients that never learned about versions keep
// working. /v2 makes the version mandatory — use POST /v2/reports for
// enforced renegotiation.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	var req reportRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding report: %v", err)
		return
	}
	up := s.mgr.Get(req.User)
	if !up.Consented {
		httpError(w, http.StatusForbidden, "user %d has not consented to the current policy", req.User)
		return
	}
	if req.PolicyVersion != 0 && req.PolicyVersion != up.Version {
		httpError(w, http.StatusConflict, "stale policy version %d (current %d)", req.PolicyVersion, up.Version)
		return
	}
	rec := Record{User: req.User, T: req.T, Point: geo.Pt(req.X, req.Y), Cell: -1, PolicyVersion: up.Version}
	if err := s.db.Insert(rec); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// policyResponse is the wire form of a user policy. The graph is included
// verbatim: publishing policy graphs is part of the transparency story.
type policyResponse struct {
	User    int             `json:"user"`
	Epsilon float64         `json:"epsilon"`
	Version int             `json:"version"`
	Graph   json.RawMessage `json:"graph"`
}

func (s *Server) handlePolicy(w http.ResponseWriter, r *http.Request) {
	user, err := queryInt(r, "user")
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	up := s.mgr.Get(user)
	writeJSON(w, policyResponse{User: user, Epsilon: up.Epsilon, Version: up.Version, Graph: up.GraphJSON})
}

type infectedRequest struct {
	Cells []int `json:"cells"`
}

func (s *Server) handleInfected(w http.ResponseWriter, r *http.Request) {
	var req infectedRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding infected cells: %v", err)
		return
	}
	changed := s.mgr.MarkInfected(req.Cells)
	if changed == nil {
		changed = []int{}
	}
	writeJSON(w, map[string][]int{"changed": changed})
}

func (s *Server) handleHealthCode(w http.ResponseWriter, r *http.Request) {
	user, err := queryInt(r, "user")
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	window, err := queryIntOpt(r, "window", 0, 1)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	now, err := queryIntOpt(r, "now", -1, 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	code := s.db.HealthCodeFor(user, s.mgr.InfectedCells(), window, now)
	writeJSON(w, map[string]string{"code": string(code)})
}

func (s *Server) handleDensity(w http.ResponseWriter, r *http.Request) {
	t, err := queryIntMin(r, "t", 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	br, bc, err := queryBlocks(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, map[string][]int{"counts": s.db.DensityAt(t, br, bc)})
}

func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	user, err := queryInt(r, "user")
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, s.db.UserRecords(user))
}

func (s *Server) handleDensitySeries(w http.ResponseWriter, r *http.Request) {
	t0, t1, err := queryTimeRange(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	br, bc, err := queryBlocks(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	series, err := s.db.DensitySeries(t0, t1, br, bc)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, map[string][][]int{"series": series})
}

func (s *Server) handleExposure(w http.ResponseWriter, r *http.Request) {
	t0, t1, err := queryTimeRange(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	series, err := s.db.InfectedExposureSeries(t0, t1, s.mgr.InfectedCells())
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, map[string][]int{"exposure": series})
}

func (s *Server) handleCensus(w http.ResponseWriter, r *http.Request) {
	window, err := queryIntOpt(r, "window", 0, 1)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	now, err := queryIntOpt(r, "now", -1, 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	census := s.db.CodeCensus(s.mgr.InfectedCells(), window, now)
	out := make(map[string]int, len(census))
	for code, n := range census {
		out[string(code)] = n
	}
	writeJSON(w, out)
}

// --- central query-parameter parsing and range validation ---
//
// Every handler (both wire versions) parses parameters through these
// helpers so range rules live in one place: timesteps are non-negative,
// time ranges are ordered, windows are positive, block dimensions are
// positive.

// queryInt parses a required integer parameter.
func queryInt(r *http.Request, key string) (int, error) {
	raw := r.URL.Query().Get(key)
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
func queryIntMin(r *http.Request, key string, min int) (int, error) {
	v, err := queryInt(r, key)
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
func queryIntOpt(r *http.Request, key string, def, min int) (int, error) {
	if r.URL.Query().Get(key) == "" {
		return def, nil
	}
	return queryIntMin(r, key, min)
}

// maxSeriesSpan bounds one range query's timestep count: series
// responses and the engine's per-timestep work are O(t1-t0), so an
// unbounded span would let one request allocate without limit. It is
// deliberately far below the engine's cache capacity so no single
// request can churn the whole density cache.
const maxSeriesSpan = 10_000

// queryTimeRange parses t0 and t1 and enforces 0 <= t0 <= t1 with at
// most maxSeriesSpan timesteps in the range.
func queryTimeRange(r *http.Request) (t0, t1 int, err error) {
	if t0, err = queryIntMin(r, "t0", 0); err != nil {
		return 0, 0, err
	}
	if t1, err = queryIntMin(r, "t1", 0); err != nil {
		return 0, 0, err
	}
	if t0 > t1 {
		return 0, 0, fmt.Errorf("inverted time range [%d, %d]", t0, t1)
	}
	// t1-t0 cannot overflow (both are >= 0); t1-t0+1 could for
	// t1 = MaxInt, so compare without the +1.
	if t1-t0 >= maxSeriesSpan {
		return 0, 0, fmt.Errorf("time range [%d, %d] spans more than the limit of %d timesteps",
			t0, t1, maxSeriesSpan)
	}
	return t0, t1, nil
}

// queryBlocks parses block_rows and block_cols, both required positive.
func queryBlocks(r *http.Request) (br, bc int, err error) {
	if br, err = queryIntMin(r, "block_rows", 1); err != nil {
		return 0, 0, err
	}
	if bc, err = queryIntMin(r, "block_cols", 1); err != nil {
		return 0, 0, err
	}
	return br, bc, nil
}
