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
// TestIngestAllocsFlat share: a server handler on the 32x32 grid.
type ingestAllocCase struct {
	handler http.Handler
	url     *url.URL
	grid    *geo.Grid
}

func newIngestAllocCase(tb testing.TB) *ingestAllocCase {
	tb.Helper()
	grid := geo.MustGrid(32, 32, 1)
	mgr, err := policy.NewManager(grid, policy.Baseline(grid), 1.0)
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := NewServerOpts(newDB(tb, grid, 4), mgr, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	reportsURL, err := url.Parse("/v2/reports")
	if err != nil {
		tb.Fatal(err)
	}
	return &ingestAllocCase{handler: srv.Handler(), url: reportsURL, grid: grid}
}

// body returns a report of n releases by user 1 under version 1, at
// timesteps 0 to n-1, encoded as the client encodes it for contentType.
func (c *ingestAllocCase) body(tb testing.TB, contentType string, n int) []byte {
	tb.Helper()
	releases := make([]wire.Release, n)
	for i := range releases {
		p := c.grid.Center(i % c.grid.NumCells())
		releases[i] = wire.Release{T: i, X: p.X, Y: p.Y}
	}
	if contentType == wire.ContentTypeBinary {
		return wire.AppendBinaryReport(nil, 1, 1, releases)
	}
	body, err := json.Marshal(wire.BatchReportRequest{User: 1, PolicyVersion: 1, Releases: releases})
	if err != nil {
		tb.Fatal(err)
	}
	return body
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

// reportEncodings are the two report encodings with the most
// allocations the handler may make for one report in each, whatever its
// size: the counts measured when the JSON path began parsing straight
// into the pooled records, where binary already was.
var reportEncodings = []struct {
	contentType string
	maxAllocs   float64
}{
	{"application/json", 16},
	{wire.ContentTypeBinary, 15},
}

// BenchmarkIngestAllocs measures the handler cost of a
// benchAllocReleases-release report in each encoding, bypassing the
// network (httptest.NewRecorder straight into the handler) so
// allocs/op is the server-side cost alone. Both paths decode straight
// into a pooled record slice, so their allocations do not grow with the
// batch; TestIngestAllocsFlat holds them to that and to their ceilings.
func BenchmarkIngestAllocs(b *testing.B) {
	c := newIngestAllocCase(b)
	run := func(b *testing.B, contentType string) {
		body := c.body(b, contentType, benchAllocReleases)
		send := c.replay(b, contentType, body)
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			send()
		}
	}
	b.Run("json", func(b *testing.B) { run(b, "application/json") })
	b.Run("binary", func(b *testing.B) { run(b, wire.ContentTypeBinary) })
}

// TestIngestAllocsFlat: in each encoding, the handler allocates as many
// times for a report of 32 releases as for one of benchAllocReleases,
// and no more than the encoding's ceiling in reportEncodings.
func TestIngestAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled buffers at random")
	}
	c := newIngestAllocCase(t)
	for _, enc := range reportEncodings {
		small := testing.AllocsPerRun(100, c.replay(t, enc.contentType, c.body(t, enc.contentType, 32)))
		large := testing.AllocsPerRun(100, c.replay(t, enc.contentType, c.body(t, enc.contentType, benchAllocReleases)))
		t.Logf("%s: %.0f allocs per report of 32 releases, %.0f of %d", enc.contentType, small, large, benchAllocReleases)
		if small != large {
			t.Errorf("%s: %.0f allocs per report of 32 releases but %.0f of %d: the cost grows with the batch",
				enc.contentType, small, large, benchAllocReleases)
		}
		if large > enc.maxAllocs {
			t.Errorf("%s: %.0f allocs per report, over the ceiling of %.0f", enc.contentType, large, enc.maxAllocs)
		}
	}
}
