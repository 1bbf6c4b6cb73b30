package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policy"
	"github.com/pglp/panda/internal/policygraph"
	"github.com/pglp/panda/internal/server/wire"
)

// Client is a typed client of the /v2 service API; it plays the role of
// the mobile app (the paper's prototype), or a gateway for many users.
// It caches each user's policy and renegotiates automatically: when the
// server answers 409 stale_policy it ships the head of the current
// policy inline, the client adopts it and retries the report once — the
// paper's dynamic-policy update.
//
// Policy graphs are cached by content ID (wire.Policy.GraphID), shared
// by every user whose policy names that ID, and kept only while some
// cached policy holds them. A head whose ID the client holds costs no
// graph transfer; the client downloads a graph only when it holds no
// graph with that ID, once however many of its users miss on it at the
// same time. An ID names the same graph on every node, so one client
// can serve users on several nodes through the cluster router.
//
// Every request method takes a context.Context first; MarkInfected
// alone also has a plain form (see its doc). Transport errors and 5xx
// responses are retried with capped, jittered exponential backoff (see
// RetryPolicy — re-sending reports is safe because ingestion replaces
// on (user, t)).
type Client struct {
	base  string
	hc    *http.Client
	retry RetryPolicy

	mu       sync.Mutex
	policies map[int]ClientPolicy          // last policy seen per user
	graphs   map[string]*policygraph.Graph // decoded graphs by content ID
	flights  map[string]*graphFlight       // graph downloads in progress, by the ID they were started for
}

// graphFlight is one graph download that concurrent misses on the same
// ID wait for. err is set before done is closed.
type graphFlight struct {
	done chan struct{}
	err  error
}

// RetryPolicy configures the client's handling of transport errors and
// 5xx responses. Non-5xx HTTP errors (4xx, including stale_policy) are
// never retried here — they are protocol outcomes, not transient
// failures.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first;
	// values below 1 mean a single attempt (retry disabled).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it. Jitter keeps a fleet of clients from
	// synchronizing: the actual sleep is uniform in [d/2, d]. Zero or
	// negative inherits DefaultRetryPolicy's value, so a policy that
	// only sets MaxAttempts still backs off.
	BaseDelay time.Duration
	// MaxDelay caps the (pre-jitter) backoff. Zero or negative inherits
	// DefaultRetryPolicy's value.
	MaxDelay time.Duration
}

// DefaultRetryPolicy is the retry used by NewClient unless WithRetry
// overrides it.
var DefaultRetryPolicy = RetryPolicy{MaxAttempts: 3, BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second}

// Option configures a Client.
type Option func(*Client)

// WithRetry sets the client's retry policy. RetryPolicy{MaxAttempts: 1}
// disables retries.
func WithRetry(p RetryPolicy) Option { return func(c *Client) { c.retry = p } }

// NewClient creates a client for the given base URL (e.g.
// "http://localhost:8080"). A nil httpClient uses http.DefaultClient.
func NewClient(base string, httpClient *http.Client, opts ...Option) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	c := &Client{
		base: base, hc: httpClient, retry: DefaultRetryPolicy,
		policies: make(map[int]ClientPolicy),
		graphs:   make(map[string]*policygraph.Graph),
		flights:  make(map[string]*graphFlight),
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// APIError is a decoded /v2 error envelope. On CodeStalePolicy, Policy
// carries the head of the server's current policy for the user (no
// graph: its GraphID names one); on CodeQueueFull
// and CodeNodeDown, RetryAfter carries the server's backoff hint —
// taken from the envelope's retry_after_ms when present, else from a
// Retry-After header (which is how 503s from the cluster router and
// plain proxies announce theirs).
type APIError struct {
	Status     int    // HTTP status
	Code       string // machine-readable wire code
	Message    string
	Policy     *wire.Policy  // inline renegotiation head, if any
	RetryAfter time.Duration // backoff hint of a 429/503, 0 when none was sent
	Node       string        // cluster node named by a node_unavailable routing error
}

// Error formats the status, wire code and message, as in
// "server client: 409 stale_policy: …", so a logged error carries the
// code automation matches on.
func (e *APIError) Error() string {
	return fmt.Sprintf("server client: %d %s: %s", e.Status, e.Code, e.Message)
}

// backoff returns the jittered sleep before retry number `retryN` (1-
// based): exponential in BaseDelay, capped at MaxDelay, uniform in
// [d/2, d]. Unset (non-positive) delay fields fall back to
// DefaultRetryPolicy so a tight retry loop is impossible to configure
// by accident.
func (c *Client) backoff(retryN int) time.Duration {
	base, max := c.retry.BaseDelay, c.retry.MaxDelay
	if base <= 0 {
		base = DefaultRetryPolicy.BaseDelay
	}
	if max <= 0 {
		max = DefaultRetryPolicy.MaxDelay
	}
	d := base << (retryN - 1)
	if d <= 0 || d > max { // <= 0: shift overflow on absurd retryN
		d = max
	}
	return d/2 + rand.N(d/2+1)
}

// sleepCtx sleeps for d or until the context is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-tm.C:
		return nil
	}
}

// do performs one JSON API request with retry; see doBytes for the
// retry contract.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var data []byte
	contentType := ""
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return fmt.Errorf("server client: encoding request: %w", err)
		}
		contentType = "application/json"
	}
	return c.doBytes(ctx, method, path, contentType, data, out)
}

// doBytes performs one API request with a pre-encoded body (sent with
// contentType; an empty contentType means no body) and retry: transport
// errors and 5xx responses are retried up to MaxAttempts with jittered
// exponential backoff, and responses carrying a retry hint — 429
// async-ingest backpressure (retry_after_ms) and 503s with a
// Retry-After header (e.g. the cluster router's node_unavailable) — are
// retried after the hint instead of the backoff curve; everything else
// is decoded (into out or an *APIError) and returned as-is. Taking
// bytes rather than a value keeps the report path re-sendable across
// retries without re-encoding.
func (c *Client) doBytes(ctx context.Context, method, path, contentType string, data []byte, out any) error {
	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			// The previous iteration chose the delay: the 429 hint when
			// the server supplied one, the backoff curve otherwise.
			delay := c.backoff(attempt - 1)
			if ae, ok := lastErr.(*APIError); ok && ae.RetryAfter > 0 {
				// Wait at least the hint — the server derived it from how
				// far its drain is behind, so retrying earlier is a near-
				// guaranteed second 429 — with jitter added on top so a
				// fleet of throttled clients does not re-send in phase.
				// The hint itself is clamped to the policy's MaxDelay: a
				// legitimate server's hint is at most 2s (= the default
				// cap), and a hostile or buggy one must not be able to
				// stall the caller for an hour.
				hint := ae.RetryAfter
				if max := c.retry.MaxDelay; max <= 0 {
					if hint > DefaultRetryPolicy.MaxDelay {
						hint = DefaultRetryPolicy.MaxDelay
					}
				} else if hint > max {
					hint = max
				}
				delay = hint + rand.N(hint/2+1)
			}
			if err := sleepCtx(ctx, delay); err != nil {
				return fmt.Errorf("server client: %s %s: %w (last error: %v)", method, path, err, lastErr)
			}
		}
		var rd io.Reader
		if contentType != "" {
			rd = bytes.NewReader(data)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return fmt.Errorf("server client: %s %s: %w", method, path, err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			lastErr = fmt.Errorf("server client: %s %s: %w", method, path, err)
			if ctx.Err() != nil {
				return lastErr
			}
			continue
		}
		retriable := resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests
		if retriable && attempt < attempts {
			// Reading the envelope (vs just discarding it) keeps the
			// connection reusable.
			body, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
			resp.Body.Close()
			lastErr = apiErrorFromResponse(resp, body)
			continue
		}
		err = decodeResponse(resp, out)
		resp.Body.Close()
		return err
	}
	return lastErr
}

func (c *Client) post(ctx context.Context, path string, body, out any) error {
	return c.do(ctx, http.MethodPost, path, body, out)
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	return c.do(ctx, http.MethodGet, path, nil, out)
}

// apiErrorFromResponse decodes an error-envelope body into an
// *APIError, falling back to the bare status when the body is not an
// envelope. The backoff hint comes from the envelope's retry_after_ms
// when present; otherwise a Retry-After header fills it in, so 503s
// from the cluster router (and anything else that only speaks the
// standard header) drive the same polite retry as 429 backpressure.
func apiErrorFromResponse(resp *http.Response, body []byte) *APIError {
	headerHint := retryAfterHeader(resp.Header)
	var e wire.Error
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		code := e.Code
		if code == "" {
			code = wire.CodeUnknown // e.g. a proxy's {error} body without a code
		}
		hint := time.Duration(e.RetryAfterMS) * time.Millisecond
		if hint <= 0 {
			hint = headerHint
		}
		return &APIError{
			Status: resp.StatusCode, Code: code, Message: e.Error, Policy: e.Policy,
			RetryAfter: hint, Node: e.Node,
		}
	}
	return &APIError{Status: resp.StatusCode, Code: wire.CodeUnknown, Message: resp.Status, RetryAfter: headerHint}
}

// retryAfterHeader parses a Retry-After header's delay-seconds form
// (the only form PANDA servers emit; HTTP-date values are ignored).
func retryAfterHeader(h http.Header) time.Duration {
	raw := h.Get("Retry-After")
	if raw == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(raw))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// maxErrorBody caps what the client reads of a non-2xx body. A /v2
// error envelope is a few hundred bytes (a stale_policy one carries a
// policy head, never a graph); pages from intermediaries can be huge,
// and a broken or hostile peer must not make the client buffer more.
const maxErrorBody = 1 << 20

// decodeResponse decodes a success body into out, or a non-2xx one into
// an *APIError. It reads a success body to its end, so the transport
// keeps the connection, into one buffer sized by its Content-Length
// when the server sent one; a length above maxPooledBody is not taken
// on trust, and the buffer grows as the bytes arrive. It hands the
// whole body to out's own UnmarshalJSON if it has one, and to
// json.Unmarshal otherwise, so the body must be one JSON value plus
// whitespace. Nothing decoded keeps a reference to the buffer.
func decodeResponse(resp *http.Response, out any) error {
	if resp.StatusCode >= 300 {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
		return apiErrorFromResponse(resp, body)
	}
	size := resp.ContentLength
	if size < 0 || size > maxPooledBody {
		size = 512
	}
	body, err := appendBody(make([]byte, 0, size), resp.Body)
	if err != nil {
		return fmt.Errorf("server client: reading response: %w", err)
	}
	if u, ok := out.(json.Unmarshaler); ok {
		err = u.UnmarshalJSON(body)
	} else {
		err = json.Unmarshal(body, out)
	}
	if err != nil {
		return fmt.Errorf("server client: decoding response: %w", err)
	}
	return nil
}

// ClientPolicy is the decoded policy of a user.
type ClientPolicy struct {
	User    int
	Epsilon float64
	Version int
	// GraphID is the content ID of Graph's encoding (policy.GraphID).
	GraphID string
	// Graph is shared by every user whose policy names the same GraphID,
	// so treat it as read-only.
	Graph *policygraph.Graph
}

// PolicyContext fetches the head of the user's current policy and
// caches the policy for automatic version negotiation. It downloads the
// graph only when the client holds no graph with the head's GraphID.
func (c *Client) PolicyContext(ctx context.Context, user int) (ClientPolicy, error) {
	var head wire.Policy
	if err := c.get(ctx, fmt.Sprintf("/v2/policy?user=%d", user), &head); err != nil {
		return ClientPolicy{}, err
	}
	return c.adoptPolicy(ctx, user, head)
}

// adoptPolicy caches the policy whose head is p as the user's policy,
// with the graph p.GraphID names (none if p.GraphID is empty). A graph
// the client holds is shared. Otherwise the client downloads the user's
// policy with its graph, and concurrent misses on one ID wait for a
// single download. A mark may land between the head and the download;
// the download then returns the newer policy, and that is the one
// adopted.
func (c *Client) adoptPolicy(ctx context.Context, user int, p wire.Policy) (ClientPolicy, error) {
	for {
		c.mu.Lock()
		// A head without an ID names no graph: there is none to fetch.
		if g, ok := c.graphs[p.GraphID]; ok || p.GraphID == "" {
			cp := ClientPolicy{User: p.User, Epsilon: p.Epsilon, Version: p.Version, GraphID: p.GraphID, Graph: g}
			c.policies[user] = cp
			c.mu.Unlock()
			return cp, nil
		}
		f, waiting := c.flights[p.GraphID]
		if !waiting {
			f = &graphFlight{done: make(chan struct{})}
			c.flights[p.GraphID] = f
		}
		c.mu.Unlock()
		if !waiting {
			return c.fetchGraph(ctx, user, p.GraphID, f)
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			return ClientPolicy{}, fmt.Errorf("server client: waiting for policy graph %s: %w", p.GraphID, ctx.Err())
		}
		// A download that ended with its own caller's context is no
		// verdict on this one; nor is one that brought back a newer
		// graph than p names. Either way, look again.
		if f.err != nil && !errors.Is(f.err, context.Canceled) && !errors.Is(f.err, context.DeadlineExceeded) {
			return ClientPolicy{}, f.err
		}
	}
}

// fetchGraph runs flight f, the download started for graph id: it
// fetches the user's policy with its graph and caches both, then wakes
// the waiters.
func (c *Client) fetchGraph(ctx context.Context, user int, id string, f *graphFlight) (ClientPolicy, error) {
	cp, err := c.downloadPolicy(ctx, user)
	c.mu.Lock()
	delete(c.flights, id)
	if err == nil {
		c.policies[user] = cp
		c.keepGraphLocked(cp.GraphID, cp.Graph)
	}
	f.err = err
	c.mu.Unlock()
	close(f.done)
	return cp, err
}

// downloadPolicy fetches the user's policy with its graph. It refuses a
// graph whose bytes do not hash to the ID sent with them, so one ID never
// names two graphs in the cache, and it decodes the graph only when the
// client holds none with that ID.
func (c *Client) downloadPolicy(ctx context.Context, user int) (ClientPolicy, error) {
	var p wire.Policy
	if err := c.get(ctx, fmt.Sprintf("/v2/policy?user=%d&graph=1", user), &p); err != nil {
		return ClientPolicy{}, err
	}
	cp := ClientPolicy{User: p.User, Epsilon: p.Epsilon, Version: p.Version, GraphID: p.GraphID}
	c.mu.Lock()
	cp.Graph = c.graphs[p.GraphID]
	c.mu.Unlock()
	if cp.Graph != nil {
		return cp, nil
	}
	if id := policy.GraphID(p.Graph); id != p.GraphID {
		return ClientPolicy{}, fmt.Errorf("server client: policy graph of user %d hashes to %s, sent as %q", user, id, p.GraphID)
	}
	// Decoding the envelope checked that p.Graph is one JSON value, so
	// it goes to the graph's own decoder without a second json pass.
	var g policygraph.Graph
	if err := g.UnmarshalJSON(p.Graph); err != nil {
		return ClientPolicy{}, fmt.Errorf("server client: decoding policy graph: %w", err)
	}
	cp.Graph = &g
	return cp, nil
}

// keepGraphLocked caches g under id and drops every other graph that no
// cached policy holds, so a graph is not kept past its last user.
// Callers hold c.mu and have cached the policy that holds g.
func (c *Client) keepGraphLocked(id string, g *policygraph.Graph) {
	if _, ok := c.graphs[id]; ok {
		return
	}
	held := make(map[string]bool, len(c.graphs))
	for _, cp := range c.policies {
		held[cp.GraphID] = true
	}
	for gid := range c.graphs {
		if !held[gid] {
			delete(c.graphs, gid)
		}
	}
	c.graphs[id] = g
}

// CachedPolicy returns the last policy seen for the user, if any.
func (c *Client) CachedPolicy(user int) (ClientPolicy, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp, ok := c.policies[user]
	return cp, ok
}

// policyVersion returns the cached version for the user, fetching the
// policy on a cold cache.
func (c *Client) policyVersion(ctx context.Context, user int) (int, error) {
	if cp, ok := c.CachedPolicy(user); ok {
		return cp.Version, nil
	}
	cp, err := c.PolicyContext(ctx, user)
	if err != nil {
		return 0, err
	}
	return cp.Version, nil
}

// adoptStalePolicy absorbs the inline policy head of a stale_policy
// error into the cache, downloading its graph if the client holds none
// with its ID, and reports whether a retry is warranted.
func (c *Client) adoptStalePolicy(ctx context.Context, user int, err error) bool {
	ae, ok := err.(*APIError)
	if !ok || ae.Code != wire.CodeStalePolicy || ae.Policy == nil {
		return false
	}
	_, derr := c.adoptPolicy(ctx, user, *ae.Policy)
	return derr == nil
}

// ReportBatchContext sends many releases for one user in one round
// trip — the contact-tracing whole-history re-send. The policy version
// is managed automatically: on a stale-policy conflict the client
// adopts the policy head inline in the 409 and retries once under the
// new version. That takes no second round trip when the client already
// holds the graph the head names, else one graph download.
//
// The retry re-submits the same releases. Releases are mechanism
// outputs, so re-submitting is safe post-processing of data already
// perturbed under the policy the user had when they were generated —
// but the server stamps stored records with its current version.
// Protocol flows that must re-perturb history under the renegotiated
// graph (the paper's contact-tracing re-send) should regenerate the
// batch instead: call CachedPolicy after a failed send (or match an
// *APIError's Code against wire.CodeStalePolicy), rebuild the
// mechanism, and send the new releases — or
// use the in-process panda.User, which releases through the new
// policy's mechanism from its first report after a policy change.
func (c *Client) ReportBatchContext(ctx context.Context, user int, releases []wire.Release) (wire.BatchReportResponse, error) {
	var out wire.BatchReportResponse
	if err := c.sendReport(ctx, "/v2/reports", "application/json", user, releases, &out); err != nil {
		return wire.BatchReportResponse{}, err
	}
	return out, nil
}

// AsyncAck is the client-side result of an async batch report. When the
// server runs without an ingest queue it falls back to synchronous
// handling; SyncFallback is then true and Queued counts the records
// applied (the ack is stronger than asked for, never weaker).
type AsyncAck struct {
	Queued        int  // records acknowledged
	QueueDepth    int  // records pending behind the ack (0 on sync fallback)
	PolicyVersion int  // version the batch was accepted under
	SyncFallback  bool // server had no queue and applied synchronously
}

// asyncOrSyncResponse decodes either acknowledgement shape of
// POST /v2/reports?mode=async: the 202 AsyncReportResponse or, on
// servers without async ingest, the 200 BatchReportResponse.
type asyncOrSyncResponse struct {
	Queued        *int `json:"queued"`
	QueueDepth    int  `json:"queue_depth"`
	Accepted      *int `json:"accepted"`
	Replaced      int  `json:"replaced"`
	PolicyVersion int  `json:"policy_version"`
}

// ack converts either acknowledgement shape into an AsyncAck.
func (r asyncOrSyncResponse) ack() (AsyncAck, error) {
	ack := AsyncAck{PolicyVersion: r.PolicyVersion}
	switch {
	case r.Queued != nil:
		ack.Queued, ack.QueueDepth = *r.Queued, r.QueueDepth
	case r.Accepted != nil:
		ack.Queued, ack.SyncFallback = *r.Accepted+r.Replaced, true
	default:
		return AsyncAck{}, errors.New("server client: unrecognized report acknowledgement")
	}
	return ack, nil
}

// ReportBatchAsyncContext sends many releases for one user with early
// acknowledgement: the server validates and queues the batch, answering
// before it reaches the store (ack ≠ applied ≠ durable — see API.md).
// Backpressure (429 queue_full) is retried automatically up to the
// retry policy's MaxAttempts, honoring the server's retry_after hint;
// re-sending is safe because ingestion replaces on (user, t). Stale
// policies renegotiate exactly like ReportBatchContext.
func (c *Client) ReportBatchAsyncContext(ctx context.Context, user int, releases []wire.Release) (AsyncAck, error) {
	var out asyncOrSyncResponse
	if err := c.sendReport(ctx, "/v2/reports?mode=async", "application/json", user, releases, &out); err != nil {
		return AsyncAck{}, err
	}
	return out.ack()
}

// reportBufs pools the encode buffers of the report path so a client
// looping over batches reuses one buffer instead of allocating a body
// per send.
var reportBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

// sendReport is the one send loop of the four report methods. It
// encodes releases under the user's cached policy version into a
// pooled buffer, in the JSON or the binary format as contentType says,
// and POSTs them to path. On a stale_policy conflict it adopts the
// server's inline policy head and sends once more, re-encoded under the
// new version: both formats carry the version, the binary one in every
// frame.
func (c *Client) sendReport(ctx context.Context, path, contentType string, user int, releases []wire.Release, out any) error {
	bp := reportBufs.Get().(*[]byte)
	defer func() {
		// Oversized encode buffers (a maximum batch is multiple MB) go to
		// the GC rather than staying pinned in the pool.
		if cap(*bp) <= maxPooledBody {
			*bp = (*bp)[:0]
			reportBufs.Put(bp)
		}
	}()
	for renegotiated := false; ; renegotiated = true {
		ver, err := c.policyVersion(ctx, user)
		if err != nil {
			return err
		}
		if contentType == wire.ContentTypeBinary {
			*bp = wire.AppendBinaryReport((*bp)[:0], user, ver, releases)
		} else {
			req := wire.BatchReportRequest{User: user, PolicyVersion: ver, Releases: releases}
			if *bp, err = req.AppendJSON((*bp)[:0]); err != nil {
				return fmt.Errorf("server client: encoding request: %w", err)
			}
		}
		err = c.doBytes(ctx, http.MethodPost, path, contentType, *bp, out)
		if err == nil || renegotiated || !c.adoptStalePolicy(ctx, user, err) {
			return err
		}
	}
}

// ReportBatchBinaryContext is ReportBatchContext over the binary record
// format (Content-Type application/x-panda-records): the same
// synchronous semantics and stale-policy renegotiation, but the batch
// is framed client-side into the store's 48-byte record layout, so the
// server ingests it without JSON materialization. Prefer it for hot
// ingest loops; the JSON path remains the default for debuggability.
func (c *Client) ReportBatchBinaryContext(ctx context.Context, user int, releases []wire.Release) (wire.BatchReportResponse, error) {
	var out wire.BatchReportResponse
	if err := c.sendReport(ctx, "/v2/reports", wire.ContentTypeBinary, user, releases, &out); err != nil {
		return wire.BatchReportResponse{}, err
	}
	return out, nil
}

// ReportBatchBinaryAsyncContext is ReportBatchAsyncContext over the
// binary record format: early acknowledgement plus the
// zero-materialization ingest path. Backpressure and renegotiation
// behave exactly like ReportBatchAsyncContext.
func (c *Client) ReportBatchBinaryAsyncContext(ctx context.Context, user int, releases []wire.Release) (AsyncAck, error) {
	var out asyncOrSyncResponse
	if err := c.sendReport(ctx, "/v2/reports?mode=async", wire.ContentTypeBinary, user, releases, &out); err != nil {
		return AsyncAck{}, err
	}
	return out.ack()
}

// IngestStatsContext fetches the async ingestion queue's observability
// counters (GET /v2/ingest/stats). Enabled is false on servers running
// without async ingest.
func (c *Client) IngestStatsContext(ctx context.Context) (wire.IngestStatsResponse, error) {
	var out wire.IngestStatsResponse
	if err := c.get(ctx, "/v2/ingest/stats", &out); err != nil {
		return wire.IngestStatsResponse{}, err
	}
	return out, nil
}

// AnalyticsStatsContext fetches the analytics engine's cache counters
// (GET /v2/analytics/stats). Through the cluster router the counters
// are summed across nodes.
func (c *Client) AnalyticsStatsContext(ctx context.Context) (wire.AnalyticsStatsResponse, error) {
	var out wire.AnalyticsStatsResponse
	if err := c.get(ctx, "/v2/analytics/stats", &out); err != nil {
		return wire.AnalyticsStatsResponse{}, err
	}
	return out, nil
}

// RecordsPageContext fetches one page of the user's stored releases. An
// empty cursor starts from the beginning; limit <= 0 uses the server
// default.
func (c *Client) RecordsPageContext(ctx context.Context, user int, cursor string, limit int) (wire.RecordsPage, error) {
	q := url.Values{}
	q.Set("user", fmt.Sprint(user))
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	if limit > 0 {
		q.Set("limit", fmt.Sprint(limit))
	}
	var page wire.RecordsPage
	if err := c.get(ctx, "/v2/records?"+q.Encode(), &page); err != nil {
		return wire.RecordsPage{}, err
	}
	return page, nil
}

// RecordsContext fetches all of a user's stored releases, following
// pagination cursors until the listing is complete.
func (c *Client) RecordsContext(ctx context.Context, user int) ([]Record, error) {
	var out []Record
	cursor := ""
	for {
		page, err := c.RecordsPageContext(ctx, user, cursor, maxPageLimit)
		if err != nil {
			return nil, err
		}
		for _, wr := range page.Records {
			out = append(out, Record{
				User: wr.User, T: wr.T, Point: geo.Pt(wr.X, wr.Y),
				Cell: wr.Cell, PolicyVersion: wr.PolicyVersion,
			})
		}
		if page.NextCursor == "" {
			return out, nil
		}
		cursor = page.NextCursor
	}
}

// MarkInfected is MarkInfectedContext under context.Background(). It is
// the client's only request method without a context, kept because the
// benchmark module's dashboard workload calls it; new callers use
// MarkInfectedContext.
func (c *Client) MarkInfected(cells []int) ([]int, error) {
	return c.MarkInfectedContext(context.Background(), cells)
}

// MarkInfectedContext publishes newly infected cells; returns affected
// users. Note the one retry caveat of this endpoint: if a response is
// lost in transit after the server applied the update, the retried call
// reports the (now-empty) second application's changed list.
func (c *Client) MarkInfectedContext(ctx context.Context, cells []int) ([]int, error) {
	var out wire.InfectedResponse
	if err := c.post(ctx, "/v2/infected", wire.InfectedRequest{Cells: cells}, &out); err != nil {
		return nil, err
	}
	return out.Changed, nil
}

// HealthCodeContext fetches the user's certification over the last
// `window` timesteps anchored at `now` (window <= 0 = all history,
// now < 0 = the server's latest timestep).
func (c *Client) HealthCodeContext(ctx context.Context, user, window, now int) (HealthCode, error) {
	path := fmt.Sprintf("/v2/healthcode?user=%d", user)
	if window > 0 {
		path += fmt.Sprintf("&window=%d", window)
	}
	if now >= 0 {
		path += fmt.Sprintf("&now=%d", now)
	}
	var out wire.HealthCodeResponse
	if err := c.get(ctx, path, &out); err != nil {
		return "", err
	}
	return HealthCode(out.Code), nil
}

// DensityContext fetches regional release counts at a timestep.
func (c *Client) DensityContext(ctx context.Context, t, blockRows, blockCols int) ([]int, error) {
	var out wire.DensityResponse
	path := fmt.Sprintf("/v2/density?t=%d&block_rows=%d&block_cols=%d", t, blockRows, blockCols)
	if err := c.get(ctx, path, &out); err != nil {
		return nil, err
	}
	return out.Counts, nil
}

// DensitySeriesContext fetches per-region counts for a timestep range,
// served from the engine's per-timestep cache (GET /v2/density/series).
func (c *Client) DensitySeriesContext(ctx context.Context, t0, t1, blockRows, blockCols int) ([][]int, error) {
	var out wire.DensitySeriesResponse
	path := fmt.Sprintf("/v2/density/series?t0=%d&t1=%d&block_rows=%d&block_cols=%d",
		t0, t1, blockRows, blockCols)
	if err := c.get(ctx, path, &out); err != nil {
		return nil, err
	}
	return out.Series, nil
}

// ExposureContext fetches the infected-place exposure series.
func (c *Client) ExposureContext(ctx context.Context, t0, t1 int) ([]int, error) {
	var out wire.ExposureResponse
	if err := c.get(ctx, fmt.Sprintf("/v2/exposure?t0=%d&t1=%d", t0, t1), &out); err != nil {
		return nil, err
	}
	return out.Exposure, nil
}

// CensusContext fetches the population health-code tally.
func (c *Client) CensusContext(ctx context.Context, window, now int) (map[HealthCode]int, error) {
	path := "/v2/census"
	sep := "?"
	if window > 0 {
		path += fmt.Sprintf("%swindow=%d", sep, window)
		sep = "&"
	}
	if now >= 0 {
		path += fmt.Sprintf("%snow=%d", sep, now)
	}
	var out wire.CensusResponse
	if err := c.get(ctx, path, &out); err != nil {
		return nil, err
	}
	census := make(map[HealthCode]int, len(out.Census))
	for code, n := range out.Census {
		census[HealthCode(code)] = n
	}
	return census, nil
}
