package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
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
// the user's current policy inline, so the client re-syncs in one round
// trip instead of following up with GET /v2/policy. up is the policy the
// report was checked against, so the message and the inline policy agree.
func v2StalePolicy(w http.ResponseWriter, user, gotVersion int, up policy.UserPolicy) {
	pol := wirePolicy(user, up)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusConflict)
	_ = json.NewEncoder(w).Encode(wire.Error{
		Error:  fmt.Sprintf("stale policy version %d (current %d)", gotVersion, up.Version),
		Code:   wire.CodeStalePolicy,
		Policy: &pol,
	})
}

// wirePolicy is the wire form of a user's policy, carrying the graph
// encoding the manager stored with it.
func wirePolicy(user int, up policy.UserPolicy) wire.Policy {
	return wire.Policy{User: user, Epsilon: up.Epsilon, Version: up.Version, Graph: up.GraphJSON}
}

// handleV2Reports negotiates the batch-report encoding on Content-Type:
// JSON (the default, including an absent header) or the binary record
// format (application/x-panda-records — the shared storage codec, see
// wire/binary.go). Anything else is a clean 415, not a JSON decode 400.
func (s *Server) handleV2Reports(w http.ResponseWriter, r *http.Request) {
	switch ct := r.Header.Get("Content-Type"); ct {
	// Exact matches first: the canonical header values stay off the
	// allocating mime parser, which matters at ingest rates.
	case "", "application/json":
		s.v2ReportsJSON(w, r)
	case wire.ContentTypeBinary:
		s.v2ReportsBinary(w, r)
	default:
		switch {
		case isJSONContent(ct):
			s.v2ReportsJSON(w, r)
		case isBinaryContent(ct):
			s.v2ReportsBinary(w, r)
		default:
			v2Error(w, http.StatusUnsupportedMediaType, wire.CodeUnsupportedMedia,
				"unsupported Content-Type %q (want application/json or %s)", ct, wire.ContentTypeBinary)
		}
	}
}

// isJSONContent reports whether ct selects the JSON report encoding. An
// absent Content-Type means JSON — the pre-negotiation default every
// existing client relies on. The exact-match fast path keeps the mime
// parser (which allocates) off the hot ingest loop; the parse only runs
// for headers carrying parameters or unusual casing.
func isJSONContent(ct string) bool {
	if ct == "" || ct == "application/json" {
		return true
	}
	mt, _, err := mime.ParseMediaType(ct)
	return err == nil && mt == "application/json"
}

// isBinaryContent reports whether ct selects the binary report encoding;
// exact match first for the same reason as isJSONContent.
func isBinaryContent(ct string) bool {
	if ct == wire.ContentTypeBinary {
		return true
	}
	mt, _, err := mime.ParseMediaType(ct)
	return err == nil && mt == wire.ContentTypeBinary
}

// reportMode folds the ?mode= query override into the body's async
// flag. ok=false means the mode was invalid and the error response has
// been written.
func (s *Server) reportMode(w http.ResponseWriter, r *http.Request, async bool) (_ bool, ok bool) {
	switch mode := r.URL.Query().Get("mode"); mode {
	case "":
	case "sync":
		async = false
	case "async":
		async = true
	default:
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest,
			"unknown mode %q (want sync or async)", mode)
		return false, false
	}
	return async, true
}

// v2ReportsJSON is the JSON leg of POST /v2/reports. Decoded releases
// land in a pooled record slice that flows through validation, the
// ingest queue, and the store without another copy.
func (s *Server) v2ReportsJSON(w http.ResponseWriter, r *http.Request) {
	var req wire.BatchReportRequest
	if !decodeJSONBody(w, r, "batch report", &req) {
		return
	}
	async, ok := s.reportMode(w, r, req.Async)
	if !ok {
		return
	}
	if len(req.Releases) == 0 {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "empty batch: at least one release required")
		return
	}
	if len(req.Releases) > maxBatchReleases {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest,
			"batch of %d releases exceeds the limit of %d", len(req.Releases), maxBatchReleases)
		return
	}
	if req.PolicyVersion <= 0 {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest,
			"policy_version is required and must be >= 1 (got %d); /v2 does not accept unversioned reports",
			req.PolicyVersion)
		return
	}
	up := s.mgr.Get(req.User)
	if !up.Consented {
		v2Error(w, http.StatusForbidden, wire.CodeConsent,
			"user %d has not consented to the current policy", req.User)
		return
	}
	if req.PolicyVersion != up.Version {
		v2StalePolicy(w, req.User, req.PolicyVersion, up)
		return
	}
	recs := storage.GetRecords()
	for _, rel := range req.Releases {
		recs = append(recs, Record{
			User: req.User, T: rel.T, Point: geo.Pt(rel.X, rel.Y),
			Cell: -1, PolicyVersion: up.Version,
		})
	}
	s.v2ReportsApply(w, recs, up.Version, async)
}

// maxBinaryBody is the exact upper bound of a well-formed binary report
// body: the batch header plus maxBatchReleases frames.
var maxBinaryBody = int64(wire.BinaryBodySize(maxBatchReleases))

// binaryBodies recycles binary request-body buffers across requests —
// the decode-scratch half of the binary path's allocation budget (the
// record half is the storage pool).
var binaryBodies = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64<<10)
		return &b
	},
}

// maxPooledBody caps the capacity a recycled body (or client encode)
// buffer may retain: a maximum-size binary body is ~5.6 MB, and pooling
// one pins it for the process lifetime. Outliers above the cap are left
// to the GC; typical bodies keep recycling.
const maxPooledBody = 1 << 20

// putBinaryBody returns a readBinaryBody buffer to the pool, dropping
// oversized outliers instead of pinning them.
func putBinaryBody(bp *[]byte) {
	if cap(*bp) > maxPooledBody {
		return
	}
	*bp = (*bp)[:0]
	binaryBodies.Put(bp)
}

// readBinaryBody reads r into a pooled buffer, bounded by maxBinaryBody.
// The returned pointer must go back via binaryBodies.Put when the bytes
// are dead.
func readBinaryBody(r io.Reader) (*[]byte, error) {
	bp := binaryBodies.Get().(*[]byte)
	buf := (*bp)[:0]
	lr := io.LimitReader(r, maxBinaryBody+1)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := lr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			*bp = buf
			return bp, nil
		}
		if err != nil {
			*bp = buf
			return bp, err
		}
	}
}

// v2ReportsBinary is the binary leg of POST /v2/reports: the body is
// read into a pooled buffer, its frames are CRC-verified and decoded
// into a pooled record slice, and — policy checks permitting — that
// same slice flows through the queue (or the store) without any JSON
// materialization in between.
func (s *Server) v2ReportsBinary(w http.ResponseWriter, r *http.Request) {
	async, ok := s.reportMode(w, r, false)
	if !ok {
		return
	}
	bp, err := readBinaryBody(r.Body)
	defer putBinaryBody(bp)
	if err != nil {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "reading binary report: %v", err)
		return
	}
	if int64(len(*bp)) > maxBinaryBody {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest,
			"binary report exceeds the %d-byte limit (%d releases)", maxBinaryBody, maxBatchReleases)
		return
	}
	user, ver, recs, err := wire.DecodeBinaryReport(*bp, maxBatchReleases, storage.GetRecords())
	if err != nil {
		storage.PutRecords(recs)
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	if ver <= 0 {
		storage.PutRecords(recs)
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest,
			"policy_version is required and must be >= 1 (got %d); /v2 does not accept unversioned reports", ver)
		return
	}
	up := s.mgr.Get(user)
	if !up.Consented {
		storage.PutRecords(recs)
		v2Error(w, http.StatusForbidden, wire.CodeConsent,
			"user %d has not consented to the current policy", user)
		return
	}
	if ver != up.Version {
		storage.PutRecords(recs)
		v2StalePolicy(w, user, ver, up)
		return
	}
	s.v2ReportsApply(w, recs, up.Version, async)
}

// v2ReportsApply is the shared tail of both report encodings: recs is a
// built (cells unset), policy-checked batch the server now owns — it is
// validated in place, then either enqueued (async) or stored (sync, also
// the fallback when async is requested but the server runs without an
// ingest queue: the ack is then stronger than asked for, never weaker).
// Every path recycles recs into the record pool — directly here, or at
// drain time by the queue's workers.
func (s *Server) v2ReportsApply(w http.ResponseWriter, recs []Record, policyVersion int, async bool) {
	if err := s.db.ValidateBatchInPlace(recs); err != nil {
		storage.PutRecords(recs)
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	if async && s.queue != nil {
		s.v2ReportsAsync(w, recs, policyVersion)
		return
	}
	added := s.db.Store().InsertBatch(recs)
	replaced := len(recs) - added
	storage.PutRecords(recs)
	writeJSON(w, wire.BatchReportResponse{Accepted: added, Replaced: replaced, PolicyVersion: policyVersion})
}

// v2ReportsAsync is the early-acknowledgement leg of POST /v2/reports:
// enqueue the pre-validated batch, 202. A full queue — or an exhausted
// per-user fairness budget — answers 429 with the drain-lag retry hint
// (both in the envelope and the standard Retry-After header); a closed
// queue (shutdown in progress) answers 503.
func (s *Server) v2ReportsAsync(w http.ResponseWriter, recs []Record, policyVersion int) {
	st := s.queue.Stats()
	// A batch larger than the whole queue can never be admitted — that
	// is a configuration mismatch, not transient backpressure, so it
	// must not get a retriable 429 (clients would re-upload the batch
	// to exhaustion). Send it sync instead, or raise -ingest-queue.
	if len(recs) > st.Capacity {
		n := len(recs)
		storage.PutRecords(recs)
		v2Error(w, http.StatusRequestEntityTooLarge, wire.CodeBadRequest,
			"async batch of %d records exceeds the ingest queue capacity of %d; send it synchronously or split it",
			n, st.Capacity)
		return
	}
	// Same reasoning for the per-user budget: a batch that alone
	// overflows it would 429 forever.
	if st.UserCap > 0 && len(recs) > st.UserCap {
		n := len(recs)
		storage.PutRecords(recs)
		v2Error(w, http.StatusRequestEntityTooLarge, wire.CodeBadRequest,
			"async batch of %d records exceeds the per-user pending budget of %d; send it synchronously or split it",
			n, st.UserCap)
		return
	}
	queued := len(recs)
	depth, err := s.queue.TryEnqueue(recs)
	switch {
	case err == nil:
		// The queue owns recs now; its workers recycle the slice.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(wire.AsyncReportResponse{
			Queued: queued, QueueDepth: depth, PolicyVersion: policyVersion,
		})
	case errors.Is(err, ingest.ErrFull):
		storage.PutRecords(recs)
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
		storage.PutRecords(recs)
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
		Records: s.db.Len(),
		MaxT:    s.db.MaxT(),
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
	st := s.db.AnalyticsStats()
	writeJSON(w, wire.AnalyticsStatsResponse{
		Hits:            st.Hits,
		Misses:          st.Misses,
		DensityEntries:  st.DensityEntries,
		ExposureEntries: st.ExposureEntries,
		CensusEntries:   st.CensusEntries,
	})
}

func (s *Server) handleV2Records(w http.ResponseWriter, r *http.Request) {
	user, err := queryInt(r, "user")
	if err != nil {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	limit, err := queryIntOpt(r, "limit", defaultPageLimit, 1)
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
	if raw := r.URL.Query().Get("cursor"); raw != "" {
		if afterT, err = wire.DecodeCursor(raw); err != nil {
			v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
			return
		}
	}
	// Fetch one extra record to learn whether another page exists.
	recs := s.db.UserRecordsAfter(user, afterT, limit+1)
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

func (s *Server) handleV2Policy(w http.ResponseWriter, r *http.Request) {
	user, err := queryInt(r, "user")
	if err != nil {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	writeJSON(w, wirePolicy(user, s.mgr.Get(user)))
}

func (s *Server) handleV2Infected(w http.ResponseWriter, r *http.Request) {
	var req wire.InfectedRequest
	if !decodeJSONBody(w, r, "infected cells", &req) {
		return
	}
	changed := s.mgr.MarkInfected(req.Cells)
	if changed == nil {
		changed = []int{}
	}
	writeJSON(w, wire.InfectedResponse{Changed: changed})
}

func (s *Server) handleV2HealthCode(w http.ResponseWriter, r *http.Request) {
	user, err := queryInt(r, "user")
	if err != nil {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	window, err := queryIntOpt(r, "window", 0, 1)
	if err != nil {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	now, err := queryIntOpt(r, "now", -1, 0)
	if err != nil {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	if now < 0 {
		now = s.db.MaxT()
	}
	code := s.db.HealthCodeFor(user, s.mgr.InfectedCells(), window, now)
	writeJSON(w, wire.HealthCodeResponse{User: user, Code: string(code), Window: window, Now: now})
}

func (s *Server) handleV2Density(w http.ResponseWriter, r *http.Request) {
	t, err := queryIntMin(r, "t", 0)
	if err != nil {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	br, bc, err := queryBlocks(r)
	if err != nil {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	// Read the generation before computing: a racing write then at worst
	// makes the reported Gen a step older than the counts, never newer —
	// a client comparing Gens can only over-refresh, never trust stale
	// data (the same ordering rule the engine's cache uses).
	gen := s.db.Store().Gen(t)
	writeJSON(w, wire.DensityResponse{T: t, Counts: s.db.DensityAt(t, br, bc), Gen: gen})
}

func (s *Server) handleV2DensitySeries(w http.ResponseWriter, r *http.Request) {
	t0, t1, err := queryTimeRange(r)
	if err != nil {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	br, bc, err := queryBlocks(r)
	if err != nil {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	epoch := s.db.Store().Epoch() // before the compute: see handleV2Density
	series, err := s.db.DensitySeries(t0, t1, br, bc)
	if err != nil {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	writeJSON(w, wire.DensitySeriesResponse{T0: t0, T1: t1, Series: series, Epoch: epoch})
}

func (s *Server) handleV2Exposure(w http.ResponseWriter, r *http.Request) {
	t0, t1, err := queryTimeRange(r)
	if err != nil {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	epoch := s.db.Store().Epoch() // before the compute: see handleV2Density
	series, err := s.db.InfectedExposureSeries(t0, t1, s.mgr.InfectedCells())
	if err != nil {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	writeJSON(w, wire.ExposureResponse{T0: t0, T1: t1, Exposure: series, Epoch: epoch})
}

func (s *Server) handleV2Census(w http.ResponseWriter, r *http.Request) {
	window, err := queryIntOpt(r, "window", 0, 1)
	if err != nil {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	now, err := queryIntOpt(r, "now", -1, 0)
	if err != nil {
		v2Error(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	if now < 0 {
		now = s.db.MaxT()
	}
	epoch := s.db.Store().Epoch() // before the compute: see handleV2Density
	census := s.db.CodeCensus(s.mgr.InfectedCells(), window, now)
	out := make(map[string]int, len(census))
	for code, n := range census {
		out[string(code)] = n
	}
	writeJSON(w, wire.CensusResponse{Census: out, Window: window, Now: now, Epoch: epoch})
}
