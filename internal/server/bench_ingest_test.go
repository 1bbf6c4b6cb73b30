package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policy"
	"github.com/pglp/panda/internal/server/wire"
)

// replayBody is a rewindable request body, so the benchmark re-sends
// the same bytes without allocating a reader per request.
type replayBody struct{ *bytes.Reader }

// Close satisfies io.ReadCloser; there is nothing to release.
func (replayBody) Close() error { return nil }

// benchAllocReleases is the batch size of the allocation benchmark —
// large enough that per-record costs dominate per-request overhead,
// small enough to stay in the pooled buffer classes.
const benchAllocReleases = 512

// ingestAllocCase is the fixture BenchmarkIngestAllocs and
// TestIngestAllocRatio share: a server handler on the 32x32 grid and one
// benchAllocReleases-release report in each encoding.
type ingestAllocCase struct {
	handler           http.Handler
	url               *url.URL
	jsonBody, binBody []byte
}

func newIngestAllocCase(tb testing.TB) *ingestAllocCase {
	tb.Helper()
	grid := geo.MustGrid(32, 32, 1)
	mgr, err := policy.NewManager(grid, policy.Baseline(grid), 1.0)
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := NewServer(newDB(tb, grid, 4), mgr)
	if err != nil {
		tb.Fatal(err)
	}
	releases := make([]wire.Release, benchAllocReleases)
	for i := range releases {
		p := grid.Center(i % grid.NumCells())
		releases[i] = wire.Release{T: i, X: p.X, Y: p.Y}
	}
	jsonBody, err := json.Marshal(wire.BatchReportRequest{User: 1, PolicyVersion: 1, Releases: releases})
	if err != nil {
		tb.Fatal(err)
	}
	reportsURL, err := url.Parse("/v2/reports")
	if err != nil {
		tb.Fatal(err)
	}
	return &ingestAllocCase{
		handler:  srv.Handler(),
		url:      reportsURL,
		jsonBody: jsonBody,
		binBody:  wire.AppendBinaryReport(nil, 1, 1, releases),
	}
}

// replay returns a function that posts body once through the handler
// and fails tb unless it answers 200. The request scaffolding (URL,
// header, body reader) is built once and reused, so what each call
// allocates is the handler's own cost, not httptest's per-request
// setup. Every call re-sends the same (user, t) records, which the
// store replaces in place.
func (c *ingestAllocCase) replay(tb testing.TB, contentType string, body []byte) func() {
	hdr := http.Header{"Content-Type": []string{contentType}}
	rd := &replayBody{Reader: bytes.NewReader(body)}
	return func() {
		rd.Reset(body)
		req := &http.Request{
			Method: http.MethodPost, URL: c.url, Header: hdr,
			Body: rd, ContentLength: int64(len(body)),
		}
		w := httptest.NewRecorder()
		c.handler.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			tb.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}

// BenchmarkIngestAllocs pins the allocation profile of the two report
// encodings, bypassing the network (httptest.NewRecorder straight into
// the handler) so allocs/op is the server-side cost alone. The binary
// path must stay at least 2× under JSON: it skips the
// wire.BatchReportRequest materialization entirely and decodes frames
// into a pooled record slice. TestIngestAllocRatio enforces that ratio,
// so a JSON-vs-binary regression fails the tests, not just a slower
// ns/op.
func BenchmarkIngestAllocs(b *testing.B) {
	c := newIngestAllocCase(b)
	run := func(b *testing.B, contentType string, body []byte) {
		send := c.replay(b, contentType, body)
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			send()
		}
	}
	b.Run("json", func(b *testing.B) { run(b, "application/json", c.jsonBody) })
	b.Run("binary", func(b *testing.B) { run(b, wire.ContentTypeBinary, c.binBody) })
}

// TestIngestAllocRatio holds BenchmarkIngestAllocs' condition: a binary
// report costs the handler at most half the allocations of the same
// report in JSON.
func TestIngestAllocRatio(t *testing.T) {
	c := newIngestAllocCase(t)
	jsonAllocs := testing.AllocsPerRun(100, c.replay(t, "application/json", c.jsonBody))
	binAllocs := testing.AllocsPerRun(100, c.replay(t, wire.ContentTypeBinary, c.binBody))
	t.Logf("allocs per %d-release report: json %.0f, binary %.0f", benchAllocReleases, jsonAllocs, binAllocs)
	if 2*binAllocs > jsonAllocs {
		t.Fatalf("binary report allocates %.0f times, JSON %.0f: binary must stay at least 2x under JSON",
			binAllocs, jsonAllocs)
	}
}
