package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policy"
	"github.com/pglp/panda/internal/server/analytics"
	"github.com/pglp/panda/internal/server/wire"
)

// maxSeriesSpan is the engine's series limit; a wider range over HTTP
// is a 400 bad_request.
const maxSeriesSpan = analytics.MaxSeriesSpan

// newTestServer spins up a full backend and a typed /v2 client against it.
func newTestServer(t *testing.T) (*Server, *Client, *geo.Grid, func()) {
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
	ts := httptest.NewServer(srv.Handler())
	client := NewClient(ts.URL, ts.Client())
	return srv, client, grid, ts.Close
}

// getJSON GETs a path, decodes a 200 body into out and returns the status.
func getJSON(t *testing.T, base, path string, out any) int {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func (c *Client) baseURL() string { return c.base }

// oneRelease is a batch of one release of p at timestep t.
func oneRelease(t int, p geo.Point) []wire.Release {
	return []wire.Release{{T: t, X: p.X, Y: p.Y}}
}

// The TestV1* names below date from the retired /v1 surface; the wire
// checks they hold now run against the /v2 routes that serve the same
// operations.

func TestV1ReportAndRecords(t *testing.T) {
	_, client, grid, done := newTestServer(t)
	defer done()
	base := client.baseURL()
	p := grid.Center(5)
	status, e := postV2(t, base, "/v2/reports",
		fmt.Sprintf(`{"user":1,"policy_version":1,"releases":[{"t":0,"x":%v,"y":%v}]}`, p.X, p.Y))
	if status != http.StatusOK {
		t.Fatalf("report status = %d (%s), want 200", status, e.Error)
	}
	var page wire.RecordsPage
	if status := getJSON(t, base, "/v2/records?user=1", &page); status != http.StatusOK {
		t.Fatalf("records status = %d, want 200", status)
	}
	if len(page.Records) != 1 || page.Records[0].Cell != 5 || page.Records[0].PolicyVersion != 1 {
		t.Errorf("records = %+v", page.Records)
	}
}

// TestV1ParamValidation covers the centralized range rules: negative
// timesteps, inverted ranges, and non-positive windows are rejected
// instead of silently computed on.
func TestV1ParamValidation(t *testing.T) {
	_, client, _, done := newTestServer(t)
	defer done()
	base := client.baseURL()
	for _, tc := range []struct{ name, path string }{
		{"negative t", "/v2/density?t=-1&block_rows=2&block_cols=2"},
		{"zero block", "/v2/density?t=0&block_rows=0&block_cols=2"},
		{"inverted range", "/v2/density/series?t0=3&t1=1&block_rows=2&block_cols=2"},
		{"negative t0", "/v2/density/series?t0=-2&t1=1&block_rows=2&block_cols=2"},
		{"inverted exposure", "/v2/exposure?t0=5&t1=2"},
		{"zero window", "/v2/healthcode?user=0&window=0"},
		{"negative window", "/v2/census?window=-3"},
		{"negative now", "/v2/healthcode?user=0&window=2&now=-1"},
		{"missing user", "/v2/healthcode"},
		{"bad user", "/v2/policy?user=abc"},
	} {
		status, e := getV2(t, base, tc.path)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d (%s), want 400", tc.name, status, e.Error)
		}
		if e.Error == "" {
			t.Errorf("%s: missing error message", tc.name)
		}
	}
	// Bad JSON body.
	status, _ := postV2(t, base, "/v2/reports", "{not json")
	if status != http.StatusBadRequest {
		t.Errorf("bad report body status = %d, want 400", status)
	}
}

func TestV1DensityAndCensus(t *testing.T) {
	srv, client, grid, done := newTestServer(t)
	defer done()
	base := client.baseURL()
	_ = insert(srv.db, Record{User: 0, T: 0, Point: grid.Center(0), Cell: -1})
	_ = insert(srv.db, Record{User: 1, T: 0, Point: grid.Center(1), Cell: -1})
	var density wire.DensityResponse
	if status := getJSON(t, base, "/v2/density?t=0&block_rows=2&block_cols=2", &density); status != http.StatusOK {
		t.Fatalf("density status = %d", status)
	}
	if len(density.Counts) != 4 || density.Counts[0] != 2 {
		t.Errorf("density counts = %v", density.Counts)
	}
	var census wire.CensusResponse
	if status := getJSON(t, base, "/v2/census", &census); status != http.StatusOK {
		t.Fatalf("census status = %d", status)
	}
	if census.Census["green"] != 2 {
		t.Errorf("census = %v, want 2 green", census.Census)
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServerOpts(nil, nil, Options{}); err == nil {
		t.Error("nil deps should error")
	}
}
