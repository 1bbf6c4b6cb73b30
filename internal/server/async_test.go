package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policy"
	"github.com/pglp/panda/internal/server/ingest"
	"github.com/pglp/panda/internal/server/storage"
	"github.com/pglp/panda/internal/server/wire"
)

// newAsyncTestServer spins up a backend with async ingest enabled under
// the given queue depth (0 = default).
func newAsyncTestServer(t *testing.T, queueDepth int) (*Server, *Client, *geo.Grid, func()) {
	t.Helper()
	grid := geo.MustGrid(4, 4, 1)
	mgr, err := policy.NewManager(grid, policy.Baseline(grid), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServerOpts(newDB(t, grid, 4), mgr, Options{
		AsyncIngest: true, IngestWorkers: 2, IngestQueueDepth: queueDepth,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	client := NewClient(ts.URL, ts.Client())
	return srv, client, grid, func() {
		ts.Close()
		srv.DrainIngest(context.Background())
	}
}

// waitDrained polls the queue until every enqueued record is applied.
func waitDrained(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Ingest().Stats().Depth > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never drained: %+v", srv.Ingest().Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAsync202AndVisibilityAfterDrain: an async batch is acknowledged
// with 202 + queue metadata, and after the background drain the records
// are served by /v2/records and by the analytics cache path.
func TestAsync202AndVisibilityAfterDrain(t *testing.T) {
	srv, client, grid, done := newAsyncTestServer(t, 0)
	defer done()

	const steps = 8
	p := grid.Center(5)
	releases := make([]wire.Release, steps)
	for i := range releases {
		releases[i] = wire.Release{T: i, X: p.X, Y: p.Y}
	}
	body, _ := json.Marshal(wire.BatchReportRequest{User: 1, PolicyVersion: 1, Releases: releases})
	resp, err := http.Post(client.baseURL()+"/v2/reports?mode=async", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async report status = %d, want 202", resp.StatusCode)
	}
	var ack wire.AsyncReportResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Queued != steps || ack.PolicyVersion != 1 {
		t.Fatalf("ack = %+v, want queued=%d version=1", ack, steps)
	}

	waitDrained(t, srv)
	recs, err := client.RecordsContext(t.Context(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != steps {
		t.Fatalf("%d records after drain, want %d", len(recs), steps)
	}
	// Analytics sees the drained writes: the store generation bumped, so
	// the engine cannot serve a pre-drain cached aggregate.
	sum := 0
	for _, c := range client.mustDensity(t, steps-1) {
		sum += c
	}
	if sum != 1 {
		t.Fatalf("density after drain sums to %d, want 1", sum)
	}
}

// mustDensity fetches /v2/density at t with 2x2 blocks.
func (c *Client) mustDensity(t *testing.T, at int) []int {
	t.Helper()
	counts, err := c.DensityContext(t.Context(), at, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return counts
}

// TestAsyncCacheInvalidationAcrossDrain pins the cache-coherence story
// end to end: query an aggregate (priming the engine cache), async-
// ingest records into the same timestep, and check the recomputed
// aggregate after the drain.
func TestAsyncCacheInvalidationAcrossDrain(t *testing.T) {
	srv, client, grid, done := newAsyncTestServer(t, 0)
	defer done()

	// Prime the cache on an empty timestep.
	if sum := sumOf(client.mustDensity(t, 0)); sum != 0 {
		t.Fatalf("pre-ingest density sums to %d, want 0", sum)
	}
	p := grid.Center(3)
	if _, err := client.ReportBatchAsyncContext(t.Context(), 1, []wire.Release{{T: 0, X: p.X, Y: p.Y}}); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, srv)
	if sum := sumOf(client.mustDensity(t, 0)); sum != 1 {
		t.Fatalf("post-drain density sums to %d, want 1 (stale cache served?)", sum)
	}
}

func sumOf(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// gatedSink blocks every apply until its gate is closed, so a test can
// hold the ingest queue full deterministically.
type gatedSink struct{ gate chan struct{} }

func (s *gatedSink) InsertBatch(recs []Record) int {
	<-s.gate
	return len(recs)
}

// TestAsyncBackpressure429: with the queue genuinely full (workers
// stalled), an admissible batch is rejected with 429, the queue_full
// code, a retry_after_ms hint, and a Retry-After header.
func TestAsyncBackpressure429(t *testing.T) {
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
	q, err := ingest.New(sink, ingest.Config{Workers: 1, QueueDepth: 4, MaxApply: 1})
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

	// Fill the queue to capacity; the worker stalls in the sink.
	if _, err := q.TryEnqueue([]Record{{User: 9, T: 0, Cell: 1}, {User: 9, T: 1, Cell: 1},
		{User: 9, T: 2, Cell: 1}, {User: 9, T: 3, Cell: 1}}); err != nil {
		t.Fatal(err)
	}

	p := grid.Center(5)
	body, _ := json.Marshal(wire.BatchReportRequest{
		User: 1, PolicyVersion: 1, Releases: []wire.Release{{T: 0, X: p.X, Y: p.Y}},
	})
	resp, err := http.Post(ts.URL+"/v2/reports?mode=async", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if h := resp.Header.Get("Retry-After"); h == "" {
		t.Error("429 carries no Retry-After header")
	}
	var e wire.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != wire.CodeQueueFull {
		t.Errorf("code = %q, want %q", e.Code, wire.CodeQueueFull)
	}
	if e.RetryAfterMS <= 0 {
		t.Errorf("retry_after_ms = %d, want > 0", e.RetryAfterMS)
	}
}

// TestAsyncBatchExceedsCapacity413: a batch larger than the whole queue
// can never be admitted, so it must be a non-retriable 413 bad_request
// — not a 429 that clients would re-upload to exhaustion.
func TestAsyncBatchExceedsCapacity413(t *testing.T) {
	_, client, grid, done := newAsyncTestServer(t, 4) // queue bound: 4 records
	defer done()

	p := grid.Center(5)
	releases := make([]wire.Release, 5) // 5 > 4
	for i := range releases {
		releases[i] = wire.Release{T: i, X: p.X, Y: p.Y}
	}
	body, _ := json.Marshal(wire.BatchReportRequest{User: 1, PolicyVersion: 1, Releases: releases})
	resp, err := http.Post(client.baseURL()+"/v2/reports?mode=async", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	var e wire.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != wire.CodeBadRequest || e.RetryAfterMS != 0 {
		t.Errorf("envelope = %+v, want bad_request with no retry hint", e)
	}
}

// TestAsyncModeValidation: bad mode values 400; validation failures are
// rejected before acknowledgement (no 202 for garbage).
func TestAsyncModeValidation(t *testing.T) {
	_, client, grid, done := newAsyncTestServer(t, 0)
	defer done()
	base := client.baseURL()

	p := grid.Center(1)
	good := fmt.Sprintf(`{"user":1,"policy_version":1,"releases":[{"t":0,"x":%v,"y":%v}]}`, p.X, p.Y)
	status, e := postV2(t, base, "/v2/reports?mode=banana", good)
	if status != http.StatusBadRequest || e.Code != wire.CodeBadRequest {
		t.Fatalf("mode=banana: status=%d code=%q, want 400 bad_request", status, e.Code)
	}
	// The mode is checked before the body, in both encodings.
	if status, e = postV2(t, base, "/v2/reports?mode=banana", "{nope"); status != http.StatusBadRequest ||
		!strings.Contains(e.Error, "mode") {
		t.Fatalf("mode=banana with a bad body: status=%d (%s), want the mode's 400", status, e.Error)
	}

	bad := `{"user":1,"policy_version":1,"releases":[{"t":-3,"x":0,"y":0}]}`
	status, e = postV2(t, base, "/v2/reports?mode=async", bad)
	if status != http.StatusBadRequest || e.Code != wire.CodeBadRequest {
		t.Fatalf("invalid record: status=%d code=%q, want 400 bad_request (never a 202)", status, e.Code)
	}

	// mode=sync forces the synchronous path even on an async server.
	resp, err := http.Post(base+"/v2/reports?mode=sync", "application/json", strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mode=sync status = %d, want 200", resp.StatusCode)
	}
	var sync wire.BatchReportResponse
	if err := json.NewDecoder(resp.Body).Decode(&sync); err != nil {
		t.Fatal(err)
	}
	if sync.Accepted != 1 {
		t.Fatalf("sync response = %+v, want accepted=1", sync)
	}

	// ?mode is the only async switch: a leftover body flag is ignored,
	// so the report is applied synchronously.
	flagged := fmt.Sprintf(`{"user":2,"policy_version":1,"async":true,"releases":[{"t":0,"x":%v,"y":%v}]}`, p.X, p.Y)
	if status, e = postV2(t, base, "/v2/reports", flagged); status != http.StatusOK {
		t.Fatalf("body async flag without ?mode: status=%d (%+v), want the synchronous 200", status, e)
	}
}

// TestAsyncFallbackOnSyncServer: ?mode=async against a server without a
// queue falls back to the synchronous path, and the client surfaces it
// as SyncFallback.
func TestAsyncFallbackOnSyncServer(t *testing.T) {
	_, client, grid, done := newTestServer(t) // no async ingest
	defer done()
	p := grid.Center(2)
	ack, err := client.ReportBatchAsyncContext(t.Context(), 3, []wire.Release{{T: 0, X: p.X, Y: p.Y}})
	if err != nil {
		t.Fatal(err)
	}
	if !ack.SyncFallback || ack.Queued != 1 {
		t.Fatalf("ack = %+v, want SyncFallback with 1 queued", ack)
	}
	recs, err := client.RecordsContext(t.Context(), 3)
	if err != nil || len(recs) != 1 {
		t.Fatalf("records = %v (err %v), want 1 record applied synchronously", recs, err)
	}
}

// TestAsyncRejectedBeforeQueue: the policy-staleness check runs before
// the enqueue, so async mode never acknowledges a report the sync path
// would refuse.
func TestAsyncRejectedBeforeQueue(t *testing.T) {
	_, client, grid, done := newAsyncTestServer(t, 0)
	defer done()
	base := client.baseURL()
	p := grid.Center(1)

	stale := fmt.Sprintf(`{"user":1,"policy_version":99,"releases":[{"t":0,"x":%v,"y":%v}]}`, p.X, p.Y)
	if status, e := postV2(t, base, "/v2/reports?mode=async", stale); status != http.StatusConflict || e.Code != wire.CodeStalePolicy {
		t.Fatalf("stale async report: status=%d code=%q, want 409 stale_policy", status, e.Code)
	}
}

// TestIngestStatsEndpoint: the observability endpoint reports queue
// configuration and counters, and enabled=false on sync-only servers.
func TestIngestStatsEndpoint(t *testing.T) {
	srv, client, grid, done := newAsyncTestServer(t, 128)
	defer done()

	st, err := client.IngestStatsContext(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Enabled || st.Capacity != 128 || st.Workers != 2 {
		t.Fatalf("stats = %+v, want enabled, capacity 128, 2 workers", st)
	}
	p := grid.Center(5)
	if _, err := client.ReportBatchAsyncContext(t.Context(), 1, []wire.Release{{T: 0, X: p.X, Y: p.Y}}); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, srv)
	st, err = client.IngestStatsContext(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if st.Enqueued != 1 || st.Drained != 1 || st.Depth != 0 {
		t.Fatalf("stats after drain = %+v, want enqueued=1 drained=1 depth=0", st)
	}

	_, syncClient, _, syncDone := newTestServer(t)
	defer syncDone()
	st, err = syncClient.IngestStatsContext(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if st.Enabled {
		t.Fatalf("sync-only server reports enabled ingest stats: %+v", st)
	}
}

// TestDrainIngestAppliesAcked: every batch acknowledged with 202 is in
// the store after DrainIngest returns — the graceful-shutdown
// guarantee the server's SIGTERM path relies on.
func TestDrainIngestAppliesAcked(t *testing.T) {
	srv, client, grid, done := newAsyncTestServer(t, 0)
	defer done()

	const users, steps = 10, 20
	p := grid.Center(6)
	for u := 0; u < users; u++ {
		releases := make([]wire.Release, steps)
		for i := range releases {
			releases[i] = wire.Release{T: i, X: p.X, Y: p.Y}
		}
		if _, err := client.ReportBatchAsyncContext(t.Context(), u, releases); err != nil {
			t.Fatalf("user %d: %v", u, err)
		}
	}
	if err := srv.DrainIngest(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := srv.db.Store().Len(); got != users*steps {
		t.Fatalf("store has %d records after drain, want %d", got, users*steps)
	}
	// The queue is closed: further async sends get 503 unavailable.
	body := fmt.Sprintf(`{"user":1,"policy_version":1,"releases":[{"t":99,"x":%v,"y":%v}]}`, p.X, p.Y)
	status, e := postV2(t, client.baseURL(), "/v2/reports?mode=async", body)
	if status != http.StatusServiceUnavailable || e.Code != wire.CodeUnavailable {
		t.Fatalf("post-drain async report: status=%d code=%q, want 503 unavailable", status, e.Code)
	}
}

// TestScanDuringAsyncDrain is the scan-consistency regression: a full
// Scan taken while the workers are actively draining must see every
// enqueued batch either fully applied or not at all (the store's
// batch-atomic visibility), never a torn batch.
func TestScanDuringAsyncDrain(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	mgr, err := policy.NewManager(grid, policy.Baseline(grid), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDBOn(grid, storage.NewShardedStore(4))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServerOpts(db, mgr, Options{AsyncIngest: true, IngestWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}

	const users, steps = 64, 25
	p := grid.Center(9)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for u := 0; u < users; u++ {
			recs := make([]Record, steps)
			for i := range recs {
				recs[i] = Record{User: u, T: i, Point: p, Cell: -1, PolicyVersion: 1}
			}
			if err := db.ValidateBatchInPlace(recs); err != nil {
				t.Error(err)
				return
			}
			for {
				if _, err := srv.Ingest().TryEnqueue(recs); err == nil {
					break
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()

	// Scan repeatedly while the drain is in flight.
	for round := 0; round < 50; round++ {
		perUser := make(map[int]int)
		db.Store().Scan(func(rec Record) bool {
			perUser[rec.User]++
			return true
		})
		for u, n := range perUser {
			if n != steps {
				t.Fatalf("round %d: scan holds %d of user %d's %d-record batch — torn batch visible",
					round, n, u, steps)
			}
		}
	}
	wg.Wait()
	if err := srv.DrainIngest(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := db.Store().Len(); got != users*steps {
		t.Fatalf("store has %d records after drain, want %d", got, users*steps)
	}
}
