package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pglp/panda/internal/server/wire"
)

// fastRetry is a test-friendly retry policy: three attempts with
// near-zero backoff.
var fastRetry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}

// TestClientRetries5xx: the client must absorb transient 5xx responses
// and succeed within its attempt budget.
func TestClientRetries5xx(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"transient","code":"internal"}`, http.StatusInternalServerError)
			return
		}
		_ = json.NewEncoder(w).Encode(wire.DensityResponse{T: 0, Counts: []int{1, 2}})
	}))
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client(), WithRetry(fastRetry))
	counts, err := client.DensityContext(t.Context(), 0, 2, 2)
	if err != nil {
		t.Fatalf("retried request failed: %v", err)
	}
	if !reflect.DeepEqual(counts, []int{1, 2}) {
		t.Errorf("counts = %v", counts)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3", got)
	}
}

// TestClientRetryExhausted: a persistent 5xx surfaces as an *APIError
// after exactly MaxAttempts tries.
func TestClientRetryExhausted(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"down","code":"internal"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client(), WithRetry(fastRetry))
	_, err := client.DensityContext(t.Context(), 0, 2, 2)
	ae, ok := err.(*APIError)
	if !ok || ae.Status != http.StatusInternalServerError {
		t.Fatalf("err = %v, want 500 APIError", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3", got)
	}
}

// TestClientRetryDisabled: MaxAttempts 1 means a single attempt, and
// 4xx responses are never retried regardless of policy.
func TestClientRetryDisabled(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		status := http.StatusInternalServerError
		if r.URL.Query().Get("t") == "4" {
			status = http.StatusBadRequest
		}
		http.Error(w, `{"error":"nope","code":"bad_request"}`, status)
	}))
	defer ts.Close()
	single := NewClient(ts.URL, ts.Client(), WithRetry(RetryPolicy{MaxAttempts: 1}))
	if _, err := single.DensityContext(t.Context(), 0, 2, 2); err == nil {
		t.Fatal("expected error")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("disabled retry: server saw %d calls, want 1", got)
	}
	calls.Store(0)
	retrying := NewClient(ts.URL, ts.Client(), WithRetry(fastRetry))
	if _, err := retrying.DensityContext(t.Context(), 4, 2, 2); !reflect.DeepEqual(calls.Load(), int64(1)) || err == nil {
		t.Errorf("4xx: calls=%d err=%v, want 1 call and an error", calls.Load(), err)
	}
}

// TestClientRetries429HonoringHint: a 429 queue_full response is
// retried after the server's retry_after_ms hint (not the backoff
// curve), and the re-send succeeds — the async-ingest backpressure
// loop.
func TestClientRetries429HonoringHint(t *testing.T) {
	const hintMS = 80
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/v2/policy":
			_ = json.NewEncoder(w).Encode(wire.Policy{User: 1, Epsilon: 1, Version: 1})
		case calls.Add(1) == 1:
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(wire.Error{
				Error: "ingest queue full", Code: wire.CodeQueueFull, RetryAfterMS: hintMS,
			})
		default:
			w.WriteHeader(http.StatusAccepted)
			_ = json.NewEncoder(w).Encode(wire.AsyncReportResponse{Queued: 1, QueueDepth: 3, PolicyVersion: 1})
		}
	}))
	defer ts.Close()

	// Millisecond backoff curve but a cap above the hint: the 429 sleep
	// must come from the hint, not the curve (MaxDelay also clamps
	// hostile hints, so it has to sit above this test's legitimate one).
	client := NewClient(ts.URL, ts.Client(),
		WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 500 * time.Millisecond}))
	start := time.Now()
	ack, err := client.ReportBatchAsyncContext(t.Context(), 1, []wire.Release{{T: 0, X: 1, Y: 1}})
	if err != nil {
		t.Fatalf("async report after backpressure: %v", err)
	}
	if ack.Queued != 1 || ack.SyncFallback {
		t.Fatalf("ack = %+v, want 1 queued async", ack)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d report calls, want 2 (one 429, one retry)", got)
	}
	// The retry must wait at least the full hint (jitter is additive),
	// far above fastRetry's millisecond backoff, so a pass proves the
	// hint was honored.
	if elapsed := time.Since(start); elapsed < hintMS*time.Millisecond {
		t.Errorf("retry happened after %v, want >= %v (the hinted wait)", elapsed, hintMS*time.Millisecond)
	}
}

// TestClient429Exhausted: persistent backpressure surfaces as a 429
// APIError carrying the retry hint once attempts run out — and an
// absurd (hostile/buggy) hint is clamped to the policy's MaxDelay
// instead of stalling the caller for an hour per attempt.
func TestClient429Exhausted(t *testing.T) {
	var calls atomic.Int64
	const hostileHintMS = 3_600_000 // one hour
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v2/policy" {
			_ = json.NewEncoder(w).Encode(wire.Policy{User: 1, Epsilon: 1, Version: 1})
			return
		}
		calls.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
		_ = json.NewEncoder(w).Encode(wire.Error{Error: "full", Code: wire.CodeQueueFull, RetryAfterMS: hostileHintMS})
	}))
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client(), WithRetry(fastRetry)) // MaxDelay 5ms clamps the hint
	start := time.Now()
	_, err := client.ReportBatchAsyncContext(t.Context(), 1, []wire.Release{{T: 0, X: 1, Y: 1}})
	ae, ok := err.(*APIError)
	if !ok || ae.Status != http.StatusTooManyRequests || ae.Code != wire.CodeQueueFull {
		t.Fatalf("err = %v, want 429 queue_full APIError", err)
	}
	if want := time.Duration(hostileHintMS) * time.Millisecond; ae.RetryAfter != want {
		t.Errorf("RetryAfter = %v, want the server's raw %v (clamping applies to the sleep, not the report)", ae.RetryAfter, want)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("exhausting retries took %v — the hostile hint was not clamped", elapsed)
	}
	if got := calls.Load(); got != int64(fastRetry.MaxAttempts) {
		t.Errorf("server saw %d calls, want %d", got, fastRetry.MaxAttempts)
	}
}

// TestClient503RetryAfterHeader: a 503 whose only hint is the standard
// Retry-After header (the cluster router's node_unavailable shape, and
// what generic proxies emit) is honored exactly like a 429's envelope
// hint: surfaced on the APIError and driving the retry wait.
func TestClient503RetryAfterHeader(t *testing.T) {
	const hintSec = 1
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(wire.Error{
				Error: "node a (http://a) unavailable: connection refused",
				Code:  wire.CodeNodeDown, Node: "a",
			})
			return
		}
		_ = json.NewEncoder(w).Encode(wire.DensityResponse{T: 0, Counts: []int{5}})
	}))
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client(),
		WithRetry(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Second}))
	start := time.Now()
	counts, err := client.DensityContext(t.Context(), 0, 1, 1)
	if err != nil {
		t.Fatalf("retry after node_unavailable: %v", err)
	}
	if !reflect.DeepEqual(counts, []int{5}) {
		t.Errorf("counts = %v", counts)
	}
	// The wait must come from the header (1s), not the millisecond curve.
	if elapsed := time.Since(start); elapsed < hintSec*time.Second {
		t.Errorf("retry happened after %v, want >= %v (the Retry-After header)", elapsed, hintSec*time.Second)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("server saw %d calls, want 2", got)
	}
}

// TestClient503NodeSurfaced: when retries run out against a dead
// cluster node, the APIError carries the node name and the hint — the
// envelope's retry_after_ms taking precedence over the header.
func TestClient503NodeSurfaced(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "9")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(wire.Error{
			Error: "node b unavailable", Code: wire.CodeNodeDown, Node: "b", RetryAfterMS: 250,
		})
	}))
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client(), WithRetry(RetryPolicy{MaxAttempts: 1}))
	_, err := client.DensityContext(t.Context(), 0, 1, 1)
	ae, ok := err.(*APIError)
	if !ok || ae.Status != http.StatusServiceUnavailable || ae.Code != wire.CodeNodeDown {
		t.Fatalf("err = %v, want 503 node_unavailable APIError", err)
	}
	if ae.Node != "b" {
		t.Errorf("Node = %q, want b", ae.Node)
	}
	if want := 250 * time.Millisecond; ae.RetryAfter != want {
		t.Errorf("RetryAfter = %v, want the envelope's %v (precedence over the header)", ae.RetryAfter, want)
	}
}

// countingBody is a response body of n spaces that counts the bytes
// read from it.
type countingBody struct {
	left, read int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	if b.left == 0 {
		return 0, io.EOF
	}
	p = p[:min(int64(len(p)), b.left)]
	for i := range p {
		p[i] = ' '
	}
	b.left -= int64(len(p))
	b.read += int64(len(p))
	return len(p), nil
}

func (b *countingBody) Close() error { return nil }

// hugeErrorTransport answers every request with status and a fresh
// 64 MiB countingBody, and keeps the bodies it handed out.
type hugeErrorTransport struct {
	status int
	bodies []*countingBody
}

func (tr *hugeErrorTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	b := &countingBody{left: 64 << 20}
	tr.bodies = append(tr.bodies, b)
	return &http.Response{
		StatusCode: tr.status, Status: http.StatusText(tr.status),
		Header: http.Header{}, Body: b, Request: req,
	}, nil
}

// TestClientCapsErrorBodies: the client reads at most maxErrorBody (plus
// one read buffer) of a non-2xx body, on the terminal path (a 400) and
// on the retry path (a 503 retried once), so a broken or hostile peer
// cannot make it buffer 64 MiB per error.
func TestClientCapsErrorBodies(t *testing.T) {
	for _, status := range []int{http.StatusBadRequest, http.StatusServiceUnavailable} {
		tr := &hugeErrorTransport{status: status}
		client := NewClient("http://panda.test", &http.Client{Transport: tr},
			WithRetry(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}))
		_, err := client.DensityContext(t.Context(), 0, 2, 2)
		if ae, ok := err.(*APIError); !ok || ae.Status != status {
			t.Errorf("status %d: err = %v, want an APIError with that status", status, err)
		}
		if status == http.StatusServiceUnavailable && len(tr.bodies) != 2 {
			t.Errorf("status %d: %d attempts, want 2", status, len(tr.bodies))
		}
		for i, b := range tr.bodies {
			if b.read > maxErrorBody+32<<10 {
				t.Errorf("status %d, attempt %d: the client read %d bytes of the error body, want at most %d",
					status, i+1, b.read, maxErrorBody+32<<10)
			}
		}
	}
}

// TestBackoffDefaults: a policy that only sets MaxAttempts still backs
// off — unset delays inherit DefaultRetryPolicy instead of producing a
// tight retry loop.
func TestBackoffDefaults(t *testing.T) {
	c := NewClient("http://example.invalid", nil, WithRetry(RetryPolicy{MaxAttempts: 5}))
	for retry := 1; retry <= 4; retry++ {
		if d := c.backoff(retry); d < DefaultRetryPolicy.BaseDelay/2 {
			t.Errorf("backoff(%d) = %v, want >= %v", retry, d, DefaultRetryPolicy.BaseDelay/2)
		}
	}
	// Backoff is capped even for huge retry counts (no shift overflow).
	if d := c.backoff(200); d > DefaultRetryPolicy.MaxDelay {
		t.Errorf("backoff(200) = %v exceeds cap %v", d, DefaultRetryPolicy.MaxDelay)
	}
}

// TestClientRetriesTransportError: a connection torn down mid-request
// is retried like a 5xx.
func TestClientRetriesTransportError(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("response writer does not support hijacking")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Fatal(err)
			}
			conn.Close() // abrupt EOF: a transport error at the client
			return
		}
		_ = json.NewEncoder(w).Encode(wire.DensityResponse{T: 0, Counts: []int{7}})
	}))
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client(), WithRetry(fastRetry))
	counts, err := client.DensityContext(t.Context(), 0, 1, 1)
	if err != nil {
		t.Fatalf("request after transport error failed: %v", err)
	}
	if !reflect.DeepEqual(counts, []int{7}) {
		t.Errorf("counts = %v", counts)
	}
}

// TestClientContextCancellation: a cancelled context aborts the request
// (and its retries) promptly.
func TestClientContextCancellation(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client(), WithRetry(fastRetry))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := client.DensityContext(ctx, 0, 1, 1); err == nil {
		t.Fatal("expected context error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}

// TestV2DensitySeriesEndpoint: GET /v2/density/series answers the range
// query and the typed client speaks that path.
func TestV2DensitySeriesEndpoint(t *testing.T) {
	_, client, grid, done := newTestServer(t)
	defer done()
	for u := 0; u < 4; u++ {
		for ti := 0; ti < 3; ti++ {
			if _, err := client.ReportBatchContext(t.Context(), u, oneRelease(ti, grid.Center((u+ti)%grid.NumCells()))); err != nil {
				t.Fatal(err)
			}
		}
	}
	resp, err := http.Get(client.baseURL() + "/v2/density/series?t0=0&t1=2&block_rows=2&block_cols=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var endpoint wire.DensitySeriesResponse
	if err := json.NewDecoder(resp.Body).Decode(&endpoint); err != nil {
		t.Fatal(err)
	}
	if len(endpoint.Series) != 3 {
		t.Fatalf("series length = %d", len(endpoint.Series))
	}
	viaClient, err := client.DensitySeriesContext(t.Context(), 0, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaClient, endpoint.Series) {
		t.Errorf("client series %v != endpoint series %v", viaClient, endpoint.Series)
	}
	// Range validation applies to the series path.
	if status, e := getV2(t, client.baseURL(), "/v2/density/series?t0=3&t1=1&block_rows=2&block_cols=2"); status != http.StatusBadRequest || e.Code != wire.CodeBadRequest {
		t.Errorf("inverted range: status=%d code=%q", status, e.Code)
	}
	// An unbounded span is rejected, not allocated — including the
	// t1-t0+1 overflow case at t1 = MaxInt.
	for _, t1 := range []string{"2000000000", "9223372036854775807"} {
		if status, e := getV2(t, client.baseURL(), "/v2/density/series?t0=0&t1="+t1+"&block_rows=2&block_cols=2"); status != http.StatusBadRequest || e.Code != wire.CodeBadRequest {
			t.Errorf("huge span t1=%s: status=%d code=%q", t1, status, e.Code)
		}
	}
}
