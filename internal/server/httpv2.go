package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policy"
	"github.com/pglp/panda/internal/server/ingest"
	"github.com/pglp/panda/internal/server/storage"
	"github.com/pglp/panda/internal/server/storage/wal"
	"github.com/pglp/panda/internal/server/wire"
)

// maxBatchReleases bounds one POST /v2/reports body; a whole-history
// re-send for one user fits comfortably, a DoS-sized body does not.
const maxBatchReleases = 100_000

// Pagination bounds for GET /v2/records.
const (
	defaultPageLimit = 100
	maxPageLimit     = 1000
)

// v2Error writes the uniform error envelope.
func v2Error(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(wire.Error{Error: fmt.Sprintf(format, args...), Code: code})
}

// decodeJSONBody decodes a JSON request body of at most
// wire.MaxRequestBody bytes into v. On failure it writes the error — 413
// for an oversized body, 400 for any other — and returns false.
func decodeJSONBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, wire.MaxRequestBody)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		v2Error(w, http.StatusRequestEntityTooLarge, wire.CodeBadRequest,
			"%s exceeds the %d-byte body limit", what, wire.MaxRequestBody)
	} else {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "decoding %s: %v", what, err)
	}
	return false
}

// v2StalePolicy writes the 409 renegotiation envelope: the error plus
// the head of the user's current policy inline, so a client that holds
// the graph the head's graph_id names re-syncs in one round trip
// instead of following up with GET /v2/policy. up is the policy the
// report was checked against, so the message and the inline policy
// agree.
func v2StalePolicy(w http.ResponseWriter, user, gotVersion int, up policy.UserPolicy) {
	writePolicy(w, http.StatusConflict, &wire.Error{
		Error: fmt.Sprintf("stale policy version %d (current %d)", gotVersion, up.Version),
		Code:  wire.CodeStalePolicy,
	}, user, up, false)
}

// writePolicy writes a response that carries the head of a user's
// policy (wire.Policy without its graph): the body of GET /v2/policy
// or, when env is non-nil, the envelope *env with the head inline. With
// graph set, which only GET /v2/policy?graph=1 asks for and only with a
// nil env, the head is followed by the graph its graph_id names. The
// bytes are those json.Encoder writes for the whole struct
// (TestPolicyBodiesUnchanged pins them). Only the head goes through
// encoding/json: up.GraphJSON is already the compact, non-empty
// encoding of the graph (see its doc), so it is written as is, never
// scanned again. The exact Content-Length lets the client keep the
// connection. Write errors go unhandled, as in writeJSON: the status is
// already sent.
func writePolicy(w http.ResponseWriter, status int, env *wire.Error, user int, up policy.UserPolicy, graph bool) {
	head := wire.Policy{User: user, Epsilon: up.Epsilon, Version: up.Version, GraphID: up.GraphID}
	var v any = head
	if env != nil {
		env.Policy = &head
		v = env
	}
	body, err := json.Marshal(v)
	if err != nil {
		v2Error(w, http.StatusInternalServerError, wire.CodeInternal, "encoding policy: %v", err)
		return
	}
	var graphJSON []byte
	tail := "\n"
	if graph {
		// Graph is the head's last field: it goes before the closing brace.
		body = append(body[:len(body)-1], `,"graph":`...)
		graphJSON, tail = up.GraphJSON, "}\n"
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)+len(graphJSON)+len(tail)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
	_, _ = w.Write(graphJSON)
	_, _ = io.WriteString(w, tail)
}

// handleV2Reports is POST /v2/reports, one path for both encodings. It
// picks the encoding from Content-Type with wire.ReportEncoding (the
// cluster router applies the same rule) and reads the acknowledgement
// mode from ?mode, both before touching the body. It decodes the body
// into a pooled record batch and runs it through the one gate,
// checkReport. A batch that passes is stored (sync, also the fallback
// when async is requested but the server runs without an ingest queue:
// the ack is then stronger than asked for, never weaker) or enqueued.
// Every path recycles the batch into the record pool — here, or at
// drain time by the queue's workers.
func (s *Server) handleV2Reports(w http.ResponseWriter, r *http.Request) {
	ct := r.Header.Get("Content-Type")
	binary, ok := wire.ReportEncoding(ct)
	if !ok {
		v2Error(w, http.StatusUnsupportedMediaType, wire.CodeUnsupportedMedia,
			"unsupported Content-Type %q (want application/json or %s)", ct, wire.ContentTypeBinary)
		return
	}
	async := false
	switch mode := r.URL.Query().Get("mode"); mode {
	case "", "sync":
	case "async":
		async = true
	default:
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest,
			"unknown mode %q (want sync or async)", mode)
		return
	}
	decode := decodeJSONReport
	if binary {
		decode = decodeBinaryReport
	}
	user, version, recs, ok := decode(w, r)
	if !ok {
		return
	}
	if !s.checkReport(w, user, version, recs) {
		storage.PutRecords(recs)
		return
	}
	if async && s.queue != nil {
		s.enqueueReport(w, recs, version)
		return
	}
	added := s.db.Store().InsertBatch(recs)
	replaced := len(recs) - added
	storage.PutRecords(recs)
	writeJSON(w, wire.BatchReportResponse{Accepted: added, Replaced: replaced, PolicyVersion: version})
}

// decodeJSONReport decodes a JSON report body into a pooled record batch
// with cells unset, which the caller then owns. On failure — a body that
// is malformed, over the byte limit, empty or over maxBatchReleases — it
// writes the error and returns ok=false.
func decodeJSONReport(w http.ResponseWriter, r *http.Request) (user, version int, recs []Record, ok bool) {
	var req wire.BatchReportRequest
	if !decodeJSONBody(w, r, "batch report", &req) {
		return 0, 0, nil, false
	}
	if len(req.Releases) == 0 {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "empty batch: at least one release required")
		return 0, 0, nil, false
	}
	if len(req.Releases) > maxBatchReleases {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest,
			"batch of %d releases exceeds the limit of %d", len(req.Releases), maxBatchReleases)
		return 0, 0, nil, false
	}
	recs = storage.GetRecords()
	for _, rel := range req.Releases {
		recs = append(recs, Record{
			User: req.User, T: rel.T, Point: geo.Pt(rel.X, rel.Y),
			Cell: -1, PolicyVersion: req.PolicyVersion,
		})
	}
	return req.User, req.PolicyVersion, recs, true
}

// maxBinaryBody is the exact upper bound of a well-formed binary report
// body: the batch header plus maxBatchReleases frames.
var maxBinaryBody = int64(wire.BinaryBodySize(maxBatchReleases))

// bodyBufs recycles body buffers across requests: binary request bodies
// (the decode-scratch half of the binary path's allocation budget; the
// record half is the storage pool) and the encodings of the analytics
// count answers.
var bodyBufs = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64<<10)
		return &b
	},
}

// maxPooledBody caps the capacity a recycled body (or client encode)
// buffer may retain: a maximum-size binary body is ~5.6 MB, and pooling
// one pins it for the process lifetime. Outliers above the cap are left
// to the GC; typical bodies keep recycling. It also caps the buffer the
// client allocates for a response body before reading it.
const maxPooledBody = 1 << 20

// putBodyBuf returns a bodyBufs buffer to the pool, dropping oversized
// outliers instead of pinning them.
func putBodyBuf(bp *[]byte) {
	if cap(*bp) > maxPooledBody {
		return
	}
	*bp = (*bp)[:0]
	bodyBufs.Put(bp)
}

// appendBody reads r to its end, appending to buf. It grows buf only
// when buf is full, so a buffer with room for the whole body takes it
// in place.
func appendBody(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// readBinaryBody reads r into a pooled buffer, bounded by maxBinaryBody.
// The returned pointer must go back via putBodyBuf when the bytes are
// dead.
func readBinaryBody(r io.Reader) (*[]byte, error) {
	bp := bodyBufs.Get().(*[]byte)
	var err error
	*bp, err = appendBody((*bp)[:0], io.LimitReader(r, maxBinaryBody+1))
	return bp, err
}

// decodeBinaryReport is decodeJSONReport for the binary record format:
// the body is read into a pooled buffer, and its frames are CRC-verified
// and decoded straight into a pooled record batch, with no JSON
// materialization in between. The records copy what they need, so the
// body buffer goes back to its pool before the batch reaches the gate.
func decodeBinaryReport(w http.ResponseWriter, r *http.Request) (user, version int, recs []Record, ok bool) {
	bp, err := readBinaryBody(r.Body)
	defer putBodyBuf(bp)
	if err != nil {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "reading binary report: %v", err)
		return 0, 0, nil, false
	}
	if int64(len(*bp)) > maxBinaryBody {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest,
			"binary report exceeds the %d-byte limit (%d releases)", maxBinaryBody, maxBatchReleases)
		return 0, 0, nil, false
	}
	user, version, recs, err = wire.DecodeBinaryReport(*bp, maxBatchReleases, storage.GetRecords())
	if err != nil {
		storage.PutRecords(recs)
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return 0, 0, nil, false
	}
	return user, version, recs, true
}

// checkReport is the one admission gate of POST /v2/reports, whatever
// the encoding. recs is a decoded batch with cells unset. In order it
// checks the policy version (≥ 1), freshness against the user's
// current policy, then every record against the grid (snapping
// cells in place); it writes the first failure's error and returns
// false. It is the only place the report path reads the user's policy.
func (s *Server) checkReport(w http.ResponseWriter, user, version int, recs []Record) bool {
	if version <= 0 {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest,
			"policy_version is required and must be >= 1 (got %d); /v2 does not accept unversioned reports", version)
		return false
	}
	up := s.mgr.Get(user)
	if version != up.Version {
		v2StalePolicy(w, user, version, up)
		return false
	}
	if err := s.db.ValidateBatchInPlace(recs); err != nil {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return false
	}
	return true
}

// enqueueReport is the early-acknowledgement leg of POST /v2/reports:
// enqueue the checked batch, 202. A batch that can never fit answers a
// non-retriable 413; a full queue — or an exhausted per-user fairness
// budget — answers 429 with the drain-lag retry hint (both in the
// envelope and the standard Retry-After header); a closed queue
// (shutdown in progress) answers 503.
func (s *Server) enqueueReport(w http.ResponseWriter, recs []Record, policyVersion int) {
	queued := len(recs)
	depth, err := s.queue.TryEnqueue(recs)
	if err != nil {
		storage.PutRecords(recs) // refused: the batch is still ours
	}
	switch {
	case err == nil:
		// The queue owns recs now; its workers recycle the slice.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(wire.AsyncReportResponse{
			Queued: queued, QueueDepth: depth, PolicyVersion: policyVersion,
		})
	case errors.Is(err, ingest.ErrTooLarge):
		// A configuration mismatch, not transient backpressure: a
		// retriable 429 would have clients re-upload the batch to
		// exhaustion.
		v2Error(w, http.StatusRequestEntityTooLarge, wire.CodeBadRequest,
			"%v; send it synchronously or split it", err)
	case errors.Is(err, ingest.ErrFull):
		hint := s.queue.RetryAfter()
		w.Header().Set("Content-Type", "application/json")
		// Retry-After is in whole seconds; sub-second hints round up to 1.
		w.Header().Set("Retry-After", strconv.Itoa(int((hint+time.Second-1)/time.Second)))
		w.WriteHeader(http.StatusTooManyRequests)
		_ = json.NewEncoder(w).Encode(wire.Error{
			Error:        fmt.Sprintf("ingest queue full (%d records pending)", s.queue.Stats().Depth),
			Code:         wire.CodeQueueFull,
			RetryAfterMS: int(hint / time.Millisecond),
		})
	default: // ingest.ErrClosed
		v2Error(w, http.StatusServiceUnavailable, wire.CodeUnavailable, "server is shutting down")
	}
}

// handleV2Healthz answers the uniform liveness probe: store size, the
// global write epoch, and — on durable stores — the WAL's surfaced
// failures (append errors are the fail-stop condition, compaction
// errors are non-fatal). A failing store answers 503 so the cluster
// router's probe and plain load balancers can act on the status code
// alone; healthy servers answer 200. The check is cheap (counter reads,
// no scans), so probing every second is fine.
func (s *Server) handleV2Healthz(w http.ResponseWriter, r *http.Request) {
	resp := wire.HealthzResponse{
		Status:  "ok",
		Records: s.db.Store().Len(),
		MaxT:    s.db.Store().MaxT(),
		Epoch:   s.db.Store().Epoch(),
	}
	if ws, ok := s.db.Store().(*wal.Store); ok {
		if err := ws.Err(); err != nil {
			resp.Status = "failing"
			resp.StoreError = err.Error()
		}
		if ce := ws.Stats().CompactErr; ce != nil {
			resp.CompactError = ce.Error()
		}
	}
	if resp.Status != "ok" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(resp)
		return
	}
	writeJSON(w, resp)
}

// handleV2IngestStats reports the async ingestion queue's counters.
// With async ingest disabled it answers enabled=false rather than 404,
// so monitors can probe the capability uniformly.
func (s *Server) handleV2IngestStats(w http.ResponseWriter, r *http.Request) {
	if s.queue == nil {
		writeJSON(w, wire.IngestStatsResponse{})
		return
	}
	st := s.queue.Stats()
	writeJSON(w, wire.IngestStatsResponse{
		Enabled:   true,
		Depth:     st.Depth,
		Capacity:  st.Capacity,
		Workers:   st.Workers,
		UserCap:   st.UserCap,
		Enqueued:  st.Enqueued,
		Drained:   st.Drained,
		Dropped:   st.Dropped,
		Rejected:  st.Rejected,
		Throttled: st.Throttled,
		LagMS:     float64(st.Lag) / float64(time.Millisecond),
	})
}

// handleV2AnalyticsStats reports the analytics engine's cache counters
// (cumulative hits/misses plus live entry counts). Like the ingest
// stats, it is a pure counter read — cheap enough to poll.
func (s *Server) handleV2AnalyticsStats(w http.ResponseWriter, r *http.Request) {
	st := s.db.Analytics().Stats()
	writeJSON(w, wire.AnalyticsStatsResponse{
		Hits:            st.Hits,
		Misses:          st.Misses,
		DensityEntries:  st.DensityEntries,
		ExposureEntries: st.ExposureEntries,
		CensusEntries:   st.CensusEntries,
	})
}

func (s *Server) handleV2Records(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	user, err := queryInt(q, "user")
	if err != nil {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	limit, err := queryIntOpt(q, "limit", defaultPageLimit, 1)
	if err != nil {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	if limit > maxPageLimit {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest,
			"limit %d exceeds the maximum of %d", limit, maxPageLimit)
		return
	}
	afterT := -1
	if raw := q.Get("cursor"); raw != "" {
		if afterT, err = wire.DecodeCursor(raw); err != nil {
			v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
			return
		}
	}
	// Fetch one extra record to learn whether another page exists.
	recs := s.db.Store().UserRecordsAfter(user, afterT, limit+1)
	page := wire.RecordsPage{Records: make([]wire.Record, 0, min(len(recs), limit))}
	more := len(recs) > limit
	if more {
		recs = recs[:limit]
	}
	for _, rec := range recs {
		page.Records = append(page.Records, wire.Record{
			User: rec.User, T: rec.T, X: rec.Point.X, Y: rec.Point.Y,
			Cell: rec.Cell, PolicyVersion: rec.PolicyVersion,
		})
	}
	if more {
		page.NextCursor = wire.EncodeCursor(recs[len(recs)-1].T)
	}
	writeJSON(w, page)
}

// handleV2Policy is GET /v2/policy: the head of the user's policy, and
// with ?graph=1 also the graph its graph_id names, both from one
// Manager.Get so that they always match.
func (s *Server) handleV2Policy(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	user, err := queryInt(q, "user")
	if err != nil {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	graph := false
	switch flag := q.Get("graph"); flag {
	case "":
	case "1":
		graph = true
	default:
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest,
			"unknown graph flag %q (want 1 or absent)", flag)
		return
	}
	writePolicy(w, http.StatusOK, nil, user, s.mgr.Get(user), graph)
}

// handleV2Infected answers an effective mark with every user the node
// knows, listed after the swap: a user who registers in between may be
// listed too, and renegotiating is idempotent.
func (s *Server) handleV2Infected(w http.ResponseWriter, r *http.Request) {
	var req wire.InfectedRequest
	if !decodeJSONBody(w, r, "infected cells", &req) {
		return
	}
	changed := []int{}
	if s.mgr.MarkInfected(req.Cells) {
		changed = s.mgr.Users()
	}
	writeJSON(w, wire.InfectedResponse{Changed: changed})
}

func (s *Server) handleV2HealthCode(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	user, err := queryInt(q, "user")
	if err != nil {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	window, err := queryIntOpt(q, "window", 0, 1)
	if err != nil {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	now, err := queryIntOpt(q, "now", -1, 0)
	if err != nil {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	if now < 0 {
		now = s.db.Store().MaxT()
	}
	code := s.db.Analytics().HealthCodeFor(user, s.mgr.InfectedCells(), window, now)
	writeJSON(w, wire.HealthCodeResponse{User: user, Code: string(code), Window: window, Now: now})
}

func (s *Server) handleV2Density(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	t, err := queryIntMin(q, "t", 0)
	if err != nil {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	br, bc, err := queryBlocks(q)
	if err != nil {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	// Read the generation before computing: a racing write then at worst
	// makes the reported Gen a step older than the counts, never newer —
	// a client comparing Gens can only over-refresh, never trust stale
	// data (the same ordering rule the engine's cache uses).
	gen := s.db.Store().Gen(t)
	writeCounts(w, wire.DensityResponse{T: t, Counts: s.db.Analytics().DensityAt(t, br, bc), Gen: gen})
}

func (s *Server) handleV2DensitySeries(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	t0, t1, err := queryTimeRange(q)
	if err != nil {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	br, bc, err := queryBlocks(q)
	if err != nil {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	epoch := s.db.Store().Epoch() // before the compute: see handleV2Density
	series, err := s.db.Analytics().DensitySeries(t0, t1, br, bc)
	if err != nil {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	writeCounts(w, wire.DensitySeriesResponse{T0: t0, T1: t1, Series: series, Epoch: epoch})
}

func (s *Server) handleV2Exposure(w http.ResponseWriter, r *http.Request) {
	t0, t1, err := queryTimeRange(r.URL.Query())
	if err != nil {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	epoch := s.db.Store().Epoch() // before the compute: see handleV2Density
	series, err := s.db.Analytics().InfectedExposureSeries(t0, t1, s.mgr.InfectedCells())
	if err != nil {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	writeCounts(w, wire.ExposureResponse{T0: t0, T1: t1, Exposure: series, Epoch: epoch})
}

func (s *Server) handleV2Census(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	window, err := queryIntOpt(q, "window", 0, 1)
	if err != nil {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	now, err := queryIntOpt(q, "now", -1, 0)
	if err != nil {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	if now < 0 {
		now = s.db.Store().MaxT()
	}
	epoch := s.db.Store().Epoch() // before the compute: see handleV2Density
	census := s.db.Analytics().CodeCensus(s.mgr.InfectedCells(), window, now)
	out := make(map[string]int, len(census))
	for code, n := range census {
		out[string(code)] = n
	}
	writeJSON(w, wire.CensusResponse{Census: out, Window: window, Now: now, Epoch: epoch})
}
