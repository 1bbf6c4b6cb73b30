package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policy"
	"github.com/pglp/panda/internal/server/ingest"
	"github.com/pglp/panda/internal/server/storage"
	"github.com/pglp/panda/internal/server/wire"
)

// postRaw POSTs body under an explicit Content-Type and returns status +
// decoded error envelope (zero-valued on 2xx).
func postRaw(t *testing.T, base, path, contentType string, body []byte) (int, wire.Error) {
	t.Helper()
	resp, err := http.Post(base+path, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e wire.Error
	_ = json.NewDecoder(resp.Body).Decode(&e)
	return resp.StatusCode, e
}

// TestBinaryJSONEquivalence sends the same releases through the JSON
// and binary report paths and checks the stored state is identical:
// same cells, bit-identical coordinates, same accepted/replaced
// accounting — the negotiated encoding must be an optimization, never a
// semantic fork.
func TestBinaryJSONEquivalence(t *testing.T) {
	srv, client, grid, done := newTestServer(t)
	defer done()

	releases := []wire.Release{
		{T: 0, X: grid.Center(1).X, Y: grid.Center(1).Y},
		{T: 1, X: 1.25, Y: 2.75},
		{T: 2, X: 0.1234567890123, Y: 3.9876543210987},
	}
	jr, err := client.ReportBatchContext(t.Context(), 1, releases)
	if err != nil {
		t.Fatal(err)
	}
	br, err := client.ReportBatchBinaryContext(t.Context(), 2, releases)
	if err != nil {
		t.Fatal(err)
	}
	if jr != br {
		t.Errorf("responses diverge: json=%+v binary=%+v", jr, br)
	}
	if br.Accepted != len(releases) || br.Replaced != 0 {
		t.Errorf("binary first send: %+v, want accepted=%d replaced=0", br, len(releases))
	}

	jrecs := srv.db.Store().UserRecords(1)
	brecs := srv.db.Store().UserRecords(2)
	if len(jrecs) != len(brecs) {
		t.Fatalf("record counts diverge: json=%d binary=%d", len(jrecs), len(brecs))
	}
	for i := range jrecs {
		j, b := jrecs[i], brecs[i]
		if j.T != b.T || j.Cell != b.Cell || j.PolicyVersion != b.PolicyVersion {
			t.Errorf("record %d diverges: json=%+v binary=%+v", i, j, b)
		}
		if math.Float64bits(j.Point.X) != math.Float64bits(b.Point.X) ||
			math.Float64bits(j.Point.Y) != math.Float64bits(b.Point.Y) {
			t.Errorf("record %d coordinates not bit-identical: json=%v binary=%v", i, j.Point, b.Point)
		}
	}

	// Re-send: the (user, t) replace semantics must hold on the binary
	// path too.
	br2, err := client.ReportBatchBinaryContext(t.Context(), 2, releases)
	if err != nil {
		t.Fatal(err)
	}
	if br2.Accepted != 0 || br2.Replaced != len(releases) {
		t.Errorf("binary re-send: %+v, want accepted=0 replaced=%d", br2, len(releases))
	}
}

// TestBinaryContentNegotiation pins the negotiation matrix of
// POST /v2/reports: JSON by default, binary by content type (parameters
// tolerated), everything else 415 with the machine-readable code.
func TestBinaryContentNegotiation(t *testing.T) {
	_, client, grid, done := newTestServer(t)
	defer done()
	base := client.baseURL()

	p := grid.Center(3)
	binBody := wire.AppendBinaryReport(nil, 5, 1, []wire.Release{{T: 0, X: p.X, Y: p.Y}})
	jsonBody := []byte(fmt.Sprintf(`{"user":6,"policy_version":1,"releases":[{"t":0,"x":%v,"y":%v}]}`, p.X, p.Y))

	cases := []struct {
		name, ct string
		body     []byte
		status   int
		code     string
	}{
		{"binary ok", wire.ContentTypeBinary, binBody, http.StatusOK, ""},
		{"binary with params", wire.ContentTypeBinary + "; v=1", binBody, http.StatusOK, ""},
		{"csv rejected", "text/csv", binBody, http.StatusUnsupportedMediaType, wire.CodeUnsupportedMedia},
		{"json ct with binary body", "application/json", binBody, http.StatusBadRequest, wire.CodeBadRequest},
		{"binary ct with json body", wire.ContentTypeBinary,
			[]byte(`{"user":5,"policy_version":1,"releases":[{"t":0,"x":0,"y":0}]}`),
			http.StatusBadRequest, wire.CodeBadRequest},
		{"binary truncated", wire.ContentTypeBinary, binBody[:len(binBody)-3],
			http.StatusBadRequest, wire.CodeBadRequest},
		{"json malformed parameter", "application/json; charset", jsonBody,
			http.StatusUnsupportedMediaType, wire.CodeUnsupportedMedia},
		{"json mixed case", "Application/JSON", jsonBody, http.StatusOK, ""},
		{"binary malformed parameter", wire.ContentTypeBinary + "; v", binBody,
			http.StatusUnsupportedMediaType, wire.CodeUnsupportedMedia},
	}
	for _, tc := range cases {
		status, e := postRaw(t, base, "/v2/reports", tc.ct, tc.body)
		if status != tc.status || e.Code != tc.code {
			t.Errorf("%s: status=%d code=%q (%s), want %d %q", tc.name, status, e.Code, e.Error, tc.status, tc.code)
		}
	}

	// The 415 must name both acceptable types, so a misconfigured client
	// can fix itself from the message alone.
	_, e := postRaw(t, base, "/v2/reports", "text/plain", []byte("hi"))
	if !strings.Contains(e.Error, "application/json") || !strings.Contains(e.Error, wire.ContentTypeBinary) {
		t.Errorf("415 message %q does not name the acceptable content types", e.Error)
	}
}

// TestBinaryReportGate drives the report gate through both encodings,
// sync and ?mode=async, on a server with an ingest queue: one gate means
// the same batch gets the same answer whatever it was framed in.
// Version 0 is refused, a stale version renegotiates with the policy
// inline, a record off the grid's time axis is refused — and none of
// them is stored or queued — while a good batch is applied (200) or
// queued (202).
func TestBinaryReportGate(t *testing.T) {
	srv, client, grid, done := newAsyncTestServer(t, 0)
	defer done()
	base := client.baseURL()

	p := grid.Center(2)
	at := func(step int) []wire.Release { return []wire.Release{{T: step, X: p.X, Y: p.Y}} }
	encodings := []struct {
		name, ct string
		encode   func(user, version int, rel []wire.Release) []byte
	}{
		{"json", "application/json", func(user, version int, rel []wire.Release) []byte {
			b, err := json.Marshal(wire.BatchReportRequest{User: user, PolicyVersion: version, Releases: rel})
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
		{"binary", wire.ContentTypeBinary, func(user, version int, rel []wire.Release) []byte {
			return wire.AppendBinaryReport(nil, user, version, rel)
		}},
	}
	rows := []struct {
		name          string
		user, version int
		releases      []wire.Release
		status        int // sync; a good batch answers 202 under ?mode=async
		code          string
	}{
		{"version 0", 3, 0, at(0), http.StatusBadRequest, wire.CodeBadRequest},
		{"stale version", 3, 99, at(0), http.StatusConflict, wire.CodeStalePolicy},
		{"negative t", 3, 1, at(-1), http.StatusBadRequest, wire.CodeBadRequest},
		{"good batch", 4, 1, at(0), http.StatusOK, ""},
	}
	for _, enc := range encodings {
		for _, mode := range []string{"", "?mode=async"} {
			for _, row := range rows {
				name := enc.name + mode + " " + row.name
				stored, queued := srv.db.Store().Len(), srv.Ingest().Stats().Enqueued
				status, e := postRaw(t, base, "/v2/reports"+mode, enc.ct, enc.encode(row.user, row.version, row.releases))
				want := row.status
				if want == http.StatusOK && mode != "" {
					want = http.StatusAccepted
				}
				if status != want || e.Code != row.code {
					t.Errorf("%s: status=%d code=%q (%s), want %d %q", name, status, e.Code, e.Error, want, row.code)
				}
				if row.code == wire.CodeStalePolicy && (e.Policy == nil || e.Policy.Version != 1) {
					t.Errorf("%s: 409 should carry the current policy inline, got %+v", name, e.Policy)
				}
				if row.code == "" {
					waitDrained(t, srv) // settle the store before the next row's snapshot
					continue
				}
				if n, q := srv.db.Store().Len(), srv.Ingest().Stats().Enqueued; n != stored || q != queued {
					t.Errorf("%s: refused batch changed the store (%d -> %d records) or the queue (%d -> %d enqueued)",
						name, stored, n, queued, q)
				}
			}
		}
	}
	// Every good send replaces the same (4, 0) record.
	if n := srv.db.Store().Len(); n != 1 || len(srv.db.Store().UserRecords(4)) != 1 {
		t.Errorf("store holds %d records, want only user 4's good batch", n)
	}
}

// TestBinaryClientRenegotiation bumps the policy behind the client's
// back and checks the binary path re-encodes the batch under the new
// version — unlike JSON, the version lives in every frame, so the retry
// must rebuild the body, not just patch a field.
func TestBinaryClientRenegotiation(t *testing.T) {
	_, client, grid, done := newTestServer(t)
	defer done()

	if _, err := client.ReportBatchBinaryContext(t.Context(), 0, []wire.Release{{T: 0, X: grid.Center(1).X, Y: grid.Center(1).Y}}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.MarkInfectedContext(t.Context(), []int{5}); err != nil {
		t.Fatal(err)
	}
	res, err := client.ReportBatchBinaryContext(t.Context(), 0, []wire.Release{{T: 1, X: grid.Center(2).X, Y: grid.Center(2).Y}})
	if err != nil {
		t.Fatalf("binary report after policy bump should auto-renegotiate, got %v", err)
	}
	if res.PolicyVersion != 2 {
		t.Errorf("accepted under version %d, want 2", res.PolicyVersion)
	}
	if cp, ok := client.CachedPolicy(0); !ok || cp.Version != 2 {
		t.Errorf("cached policy = %+v, want version 2", cp)
	}
	if recs, _ := client.RecordsContext(t.Context(), 0); len(recs) != 2 {
		t.Errorf("records = %d, want 2 (renegotiation must not drop the report)", len(recs))
	}
}

// TestBinaryAsyncIngest drives a binary batch through the async queue:
// 202 early ack, then the drained records match what was sent bit for
// bit.
func TestBinaryAsyncIngest(t *testing.T) {
	srv, client, grid, done := newAsyncTestServer(t, 0)
	defer done()

	releases := []wire.Release{
		{T: 0, X: grid.Center(1).X, Y: grid.Center(1).Y},
		{T: 1, X: 2.5, Y: 1.5},
	}
	ack, err := client.ReportBatchBinaryAsyncContext(t.Context(), 11, releases)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Queued != len(releases) || ack.SyncFallback {
		t.Fatalf("ack = %+v, want queued=%d sync_fallback=false", ack, len(releases))
	}
	waitDrained(t, srv)
	recs := srv.db.Store().UserRecords(11)
	if len(recs) != len(releases) {
		t.Fatalf("drained records = %d, want %d", len(recs), len(releases))
	}
	for i, rel := range releases {
		if math.Float64bits(recs[i].Point.X) != math.Float64bits(rel.X) ||
			math.Float64bits(recs[i].Point.Y) != math.Float64bits(rel.Y) {
			t.Errorf("record %d coordinates not bit-identical: sent (%v,%v), stored %v",
				i, rel.X, rel.Y, recs[i].Point)
		}
		if recs[i].Cell != grid.Snap(geo.Pt(rel.X, rel.Y)) {
			t.Errorf("record %d cell = %d, want snapped %d", i, recs[i].Cell, grid.Snap(geo.Pt(rel.X, rel.Y)))
		}
	}
}

// TestFairnessHTTP floods the async endpoint from one hot user until it
// is throttled and checks a well-behaved user still gets a 202 — the
// per-user budget protects the queue's remaining capacity instead of
// letting one client starve everyone.
func TestFairnessHTTP(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	mgr, err := policy.NewManager(grid, policy.Baseline(grid), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDBOn(grid, storage.NewShardedStore(1))
	if err != nil {
		t.Fatal(err)
	}
	sink := &gatedSink{gate: make(chan struct{})}
	q, err := ingest.New(sink, ingest.Config{Workers: 1, QueueDepth: 100, MaxApply: 1, MaxUserPending: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{db: db, mgr: mgr, queue: q}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		close(sink.gate)
		srv.DrainIngest(context.Background())
	}()

	p := grid.Center(5)
	report := func(user int, t0 int) []byte {
		return wire.AppendBinaryReport(nil, user, 1, []wire.Release{{T: t0, X: p.X, Y: p.Y}})
	}

	// Flood from the hot user until the fairness budget throttles it.
	throttled := false
	for i := 0; i < 50 && !throttled; i++ {
		status, e := postRaw(t, ts.URL, "/v2/reports?mode=async", wire.ContentTypeBinary, report(1, i))
		switch status {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			if e.Code != wire.CodeQueueFull {
				t.Fatalf("throttle code = %q, want %q", e.Code, wire.CodeQueueFull)
			}
			if e.RetryAfterMS <= 0 {
				t.Errorf("throttle carries no retry hint: %+v", e)
			}
			throttled = true
		default:
			t.Fatalf("hot user got status %d (%+v)", status, e)
		}
	}
	if !throttled {
		t.Fatal("hot user was never throttled despite MaxUserPending=8")
	}

	// A different user must still be admitted: the queue has 90+ free
	// slots, only the hot user's budget is exhausted.
	status, e := postRaw(t, ts.URL, "/v2/reports?mode=async", wire.ContentTypeBinary, report(2, 0))
	if status != http.StatusAccepted {
		t.Fatalf("well-behaved user got status %d (%+v), want 202", status, e)
	}

	// The stats surface must attribute the rejections to the fairness
	// budget.
	st := srv.Ingest().Stats()
	if st.Throttled == 0 || st.Throttled > st.Rejected {
		t.Errorf("throttled = %d (rejected = %d), want 0 < throttled <= rejected", st.Throttled, st.Rejected)
	}
	if st.UserCap != 8 {
		t.Errorf("user cap = %d, want 8", st.UserCap)
	}

	// A single batch larger than the per-user budget can never be queued
	// — that must be a terminal 413, not a retriable 429.
	big := make([]wire.Release, 9)
	for i := range big {
		big[i] = wire.Release{T: 100 + i, X: p.X, Y: p.Y}
	}
	status, e = postRaw(t, ts.URL, "/v2/reports?mode=async", wire.ContentTypeBinary,
		wire.AppendBinaryReport(nil, 3, 1, big))
	if status != http.StatusRequestEntityTooLarge || e.Code != wire.CodeBadRequest {
		t.Errorf("over-budget batch: status=%d code=%q, want 413 %q", status, e.Code, wire.CodeBadRequest)
	}
}
