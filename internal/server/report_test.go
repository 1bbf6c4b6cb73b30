package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policy"
	"github.com/pglp/panda/internal/server/wire"
)

// reportTap keeps the body of every POST /v2/reports it passes on to a
// handler.
type reportTap struct {
	mu     sync.Mutex
	bodies [][]byte
}

func (tap *reportTap) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v2/reports" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			tap.mu.Lock()
			tap.bodies = append(tap.bodies, body)
			tap.mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		h.ServeHTTP(w, r)
	})
}

// taken returns the bodies kept so far and forgets them.
func (tap *reportTap) taken() [][]byte {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	b := tap.bodies
	tap.bodies = nil
	return b
}

// newTappedServer serves a 4x4 grid through a reportTap, and returns a
// client of it.
func newTappedServer(t *testing.T) (*Client, *reportTap) {
	t.Helper()
	grid := geo.MustGrid(4, 4, 1)
	mgr, err := policy.NewManager(grid, policy.Baseline(grid), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServerOpts(newDB(t, grid, 4), mgr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tap := &reportTap{}
	ts := httptest.NewServer(tap.wrap(srv.Handler()))
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, ts.Client()), tap
}

// TestClientReportBytes: the client sends a JSON report as the bytes
// json.Marshal writes for its wire.BatchReportRequest, in both
// acknowledgement modes, for floats at each edge of encoding/json's
// float format.
func TestClientReportBytes(t *testing.T) {
	client, tap := newTappedServer(t)
	ctx := t.Context()
	for _, f := range []float64{
		0.5, 3.25, math.Copysign(0, -1), 1e-7, 1e-6, 9.999999e-7, 1e20, 1e21, -1e21,
		5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1234567890123,
	} {
		releases := []wire.Release{{T: 0, X: 1.5, Y: 2.5}, {T: 1, X: f, Y: -f}}
		want, err := json.Marshal(wire.BatchReportRequest{User: 3, PolicyVersion: 1, Releases: releases})
		if err != nil {
			t.Fatal(err)
		}
		// Out-of-grid coordinates answer 400; only the bytes matter here.
		_, _ = client.ReportBatchContext(ctx, 3, releases)
		_, _ = client.ReportBatchAsyncContext(ctx, 3, releases)
		bodies := tap.taken()
		if len(bodies) != 2 {
			t.Fatalf("%v: %d report requests, want 2", f, len(bodies))
		}
		for _, body := range bodies {
			if !bytes.Equal(body, want) {
				t.Errorf("%v: client sent\n%s\nwant json.Marshal's\n%s", f, body, want)
			}
		}
	}
}

// TestClientReportNonFinite: a NaN or infinite release fails in the
// client, with the error json.Marshal gave it, before any report is
// sent.
func TestClientReportNonFinite(t *testing.T) {
	client, tap := newTappedServer(t)
	ctx := t.Context()
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		releases := []wire.Release{{T: 0, X: 1.5, Y: 2.5}, {T: 1, X: 0.5, Y: f}}
		_, err := client.ReportBatchContext(ctx, 3, releases)
		want := fmt.Sprintf("server client: encoding request: json: unsupported value: %v", f)
		var unsupported *json.UnsupportedValueError
		if err == nil || err.Error() != want || !errors.As(err, &unsupported) {
			t.Errorf("%v: error %v, want %q", f, err, want)
		}
		if _, err := client.ReportBatchAsyncContext(ctx, 3, releases); err == nil || err.Error() != want {
			t.Errorf("%v, async: error %v, want %q", f, err, want)
		}
	}
	if n := len(tap.taken()); n != 0 {
		t.Errorf("%d reports sent, want none", n)
	}
}

// TestV2ReportErrors pins the 400 answer of each way a JSON report
// fails admission, in the form the client writes and re-indented, which
// encoding/json decodes: the code and message are the ones the handler
// gave when encoding/json decoded every body, and nothing is stored.
func TestV2ReportErrors(t *testing.T) {
	srv, client, _, done := newTestServer(t)
	defer done()
	over := make([]wire.Release, maxBatchReleases+1)
	for i := range over {
		over[i] = wire.Release{T: i, X: 0.5, Y: 0.5}
	}
	overBody, err := wire.BatchReportRequest{User: 1, PolicyVersion: 1, Releases: over}.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, body, msg string }{
		{"over the limit", string(overBody), "batch of 100001 releases exceeds the limit of 100000"},
		{"empty", `{"user":1,"policy_version":1,"releases":[]}`, "empty batch: at least one release required"},
		{"null", `{"user":1,"policy_version":1,"releases":null}`, "empty batch: at least one release required"},
		{"truncated", `{"user":1,"policy_version":1,"releases":[{"t":0,"x":0.5,"y":0.5}`, "decoding batch report: unexpected EOF"},
		{"no body", ``, "decoding batch report: EOF"},
		{"string x", `{"user":1,"policy_version":1,"releases":[{"t":0,"x":"0.5","y":0.5}]}`,
			"decoding batch report: json: cannot unmarshal string into Go struct field Release.releases.x of type float64"},
		{"float t", `{"user":1,"policy_version":1,"releases":[{"t":1.5,"x":0.5,"y":0.5}]}`,
			"decoding batch report: json: cannot unmarshal number 1.5 into Go struct field Release.releases.t of type int"},
		{"x out of range", `{"user":1,"policy_version":1,"releases":[{"t":0,"x":1e400,"y":0.5}]}`,
			"decoding batch report: json: cannot unmarshal number 1e400 into Go struct field Release.releases.x of type float64"},
		{"version 0", `{"user":1,"policy_version":0,"releases":[{"t":0,"x":0.5,"y":0.5}]}`,
			"policy_version is required and must be >= 1 (got 0); /v2 does not accept unversioned reports"},
		{"negative t", `{"user":1,"policy_version":1,"releases":[{"t":0,"x":0.5,"y":0.5},{"t":-1,"x":0.5,"y":0.5}]}`,
			"record 1: server: negative timestep -1"},
	} {
		indented := strings.ReplaceAll(tc.body, `,"`, `, "`)
		for _, body := range []string{tc.body, indented} {
			status, e := postV2(t, client.baseURL(), "/v2/reports", body)
			if status != http.StatusBadRequest || e.Code != wire.CodeBadRequest || e.Error != tc.msg {
				t.Errorf("%s (%.40q): %d %q %q, want 400 %q %q", tc.name, body, status, e.Code, e.Error, wire.CodeBadRequest, tc.msg)
			}
		}
	}
	if n := srv.db.Store().Len(); n != 0 {
		t.Errorf("%d records stored from refused reports, want 0", n)
	}
}

// TestV2ReportBodyLimit: a JSON report is read whole before it is
// parsed, so a body of more than wire.MaxRequestBody bytes is refused
// with 413 even when its JSON value ends well before the limit, and one
// of exactly the limit is accepted.
func TestV2ReportBodyLimit(t *testing.T) {
	srv, client, _, done := newTestServer(t)
	defer done()
	body := `{"user":1,"policy_version":1,"releases":[{"t":0,"x":0.5,"y":0.5}]}`
	for _, tc := range []struct {
		size   int64
		status int
	}{
		{wire.MaxRequestBody + 1, http.StatusRequestEntityTooLarge},
		{wire.MaxRequestBody, http.StatusOK},
	} {
		rd := io.MultiReader(strings.NewReader(body), io.LimitReader(spaces{}, tc.size-int64(len(body))))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/reports", rd))
		if rec.Code != tc.status {
			t.Fatalf("%d-byte body: status %d (%s), want %d", tc.size, rec.Code, rec.Body.Bytes(), tc.status)
		}
		if tc.status == http.StatusRequestEntityTooLarge {
			var e wire.Error
			_ = json.NewDecoder(rec.Body).Decode(&e)
			want := fmt.Sprintf("batch report exceeds the %d-byte body limit", wire.MaxRequestBody)
			if e.Code != wire.CodeBadRequest || e.Error != want {
				t.Errorf("%d-byte body: %q %q, want %q %q", tc.size, e.Code, e.Error, wire.CodeBadRequest, want)
			}
			if n := srv.db.Store().Len(); n != 0 {
				t.Errorf("%d records stored from an oversized body, want 0", n)
			}
		}
	}
	if recs, err := client.RecordsContext(t.Context(), 1); err != nil || len(recs) != 1 {
		t.Errorf("records of user 1: %v, %v; want the one release of the body at the limit", recs, err)
	}
}
