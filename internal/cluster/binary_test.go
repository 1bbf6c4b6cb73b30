package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/pglp/panda/internal/cluster"
	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policy"
	"github.com/pglp/panda/internal/server"
	"github.com/pglp/panda/internal/server/storage/wal"
	"github.com/pglp/panda/internal/server/wire"
)

// postBody POSTs raw bytes under an explicit Content-Type and returns
// the status plus the body decoded as an error envelope (zero on 2xx).
func postBody(t *testing.T, url, contentType string, body []byte) (int, wire.Error) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e wire.Error
	_ = json.NewDecoder(resp.Body).Decode(&e)
	return resp.StatusCode, e
}

// TestClusterBinaryReports drives binary batches through the router:
// the peek must route on the fixed header alone, the bytes must pass
// through verbatim to the owning node, and unknown content types must
// be refused at the router without dialing any node.
func TestClusterBinaryReports(t *testing.T) {
	f := startFleet(t, 2, false)

	// Users 0..7 cover both nodes under round-robin partition ownership.
	sent := map[int][]wire.Release{}
	for user := 0; user < 8; user++ {
		releases := []wire.Release{
			{T: 0, X: float64(user) + 0.125, Y: 1.5},
			{T: 1, X: 0.1234567890123 * float64(user+1), Y: 2.25},
		}
		sent[user] = releases
		status, e := postBody(t, f.routerURL+"/v2/reports", wire.ContentTypeBinary,
			wire.AppendBinaryReport(nil, user, 1, releases))
		if status != http.StatusOK {
			t.Fatalf("user %d: status %d (%+v)", user, status, e)
		}
	}

	// Every record must be readable back through the router with
	// bit-identical coordinates — proxying re-encoded nothing.
	for user, releases := range sent {
		var page wire.RecordsPage
		if st := getJSON(t, fmt.Sprintf("%s/v2/records?user=%d", f.routerURL, user), &page); st != http.StatusOK {
			t.Fatalf("records user %d: status %d", user, st)
		}
		if len(page.Records) != len(releases) {
			t.Fatalf("user %d: %d records, want %d", user, len(page.Records), len(releases))
		}
		for i, rel := range releases {
			got := page.Records[i]
			if math.Float64bits(got.X) != math.Float64bits(rel.X) ||
				math.Float64bits(got.Y) != math.Float64bits(rel.Y) {
				t.Errorf("user %d record %d: stored (%v,%v), sent (%v,%v)", user, i, got.X, got.Y, rel.X, rel.Y)
			}
		}
	}

	// The router refuses unknown encodings itself — a 415 with the
	// machine-readable code, not a confusing 400 from a node's JSON
	// decoder.
	status, e := postBody(t, f.routerURL+"/v2/reports", "application/octet-stream", []byte("junk"))
	if status != http.StatusUnsupportedMediaType || e.Code != wire.CodeUnsupportedMedia {
		t.Errorf("unknown content type: status=%d code=%q, want 415 %q", status, e.Code, wire.CodeUnsupportedMedia)
	}

	// A binary body too short to carry the routing header is a clean 400
	// at the router.
	status, e = postBody(t, f.routerURL+"/v2/reports", wire.ContentTypeBinary, []byte("PBR1"))
	if status != http.StatusBadRequest || e.Code != wire.CodeBadRequest {
		t.Errorf("truncated binary: status=%d code=%q, want 400 %q", status, e.Code, wire.CodeBadRequest)
	}
}

// TestClusterReportNegotiation runs the node's Content-Type table
// (internal/server's TestBinaryContentNegotiation) through the router
// with every node down: the router applies the node's own rule, so each
// 415 comes from the router itself, and every type the node accepts is
// routed — here to a dead node, hence 503.
func TestClusterReportNegotiation(t *testing.T) {
	f := startFleet(t, 2, false)
	for _, fn := range f.flaky {
		fn.down.Store(true)
	}
	binBody := wire.AppendBinaryReport(nil, 5, 1, []wire.Release{{T: 0, X: 1.5, Y: 1.5}})
	jsonBody := []byte(`{"user":5,"policy_version":1,"releases":[{"t":0,"x":1.5,"y":1.5}]}`)
	for _, tc := range []struct {
		ct     string
		body   []byte
		status int
		code   string
	}{
		{wire.ContentTypeBinary, binBody, http.StatusServiceUnavailable, wire.CodeNodeDown},
		{wire.ContentTypeBinary + "; v=1", binBody, http.StatusServiceUnavailable, wire.CodeNodeDown},
		{"application/json", jsonBody, http.StatusServiceUnavailable, wire.CodeNodeDown},
		{"Application/JSON", jsonBody, http.StatusServiceUnavailable, wire.CodeNodeDown},
		{"text/csv", binBody, http.StatusUnsupportedMediaType, wire.CodeUnsupportedMedia},
		{"application/json; charset", jsonBody, http.StatusUnsupportedMediaType, wire.CodeUnsupportedMedia},
		{wire.ContentTypeBinary + "; v", binBody, http.StatusUnsupportedMediaType, wire.CodeUnsupportedMedia},
	} {
		status, e := postBody(t, f.routerURL+"/v2/reports", tc.ct, tc.body)
		if status != tc.status || e.Code != tc.code {
			t.Errorf("Content-Type %q: status=%d code=%q (%s), want %d %q", tc.ct, status, e.Code, e.Error, tc.status, tc.code)
		}
	}
}

// spaces is an endless stream of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestRouterBodyLimit: a body longer than the nodes' limit is refused by
// the router with 413 before any node is dialed, even when it would
// decode to a valid request (a small JSON value behind that many bytes
// of whitespace). Cutting it at the limit and forwarding it instead
// would ship the bytes to a node, here to dead ones that answer 503.
func TestRouterBodyLimit(t *testing.T) {
	f := startFleet(t, 2, false)
	for _, fn := range f.flaky {
		fn.down.Store(true)
	}
	for _, tc := range []struct{ path, body string }{
		{"/v2/reports", `{"user":0,"policy_version":1,"releases":[{"t":0,"x":1.5,"y":1.5}]}`},
		{"/v2/infected", `{"cells":[5]}`},
	} {
		body := io.MultiReader(io.LimitReader(spaces{}, wire.MaxRequestBody), strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		f.router.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, body))
		var e wire.Error
		_ = json.NewDecoder(rec.Body).Decode(&e)
		if rec.Code != http.StatusRequestEntityTooLarge || e.Code != wire.CodeBadRequest {
			t.Errorf("%s: status=%d code=%q (%s), want 413 %q", tc.path, rec.Code, e.Code, e.Error, wire.CodeBadRequest)
		}
	}
}

// TestClusterBinaryDurableReplay is the wire→queue→stripe→reopen
// equivalence check: a binary batch POSTed through the router to a
// durable async node must, after a simulated SIGKILL (the WAL directory
// is reopened without Close — every append is flushed before it is
// acknowledged as applied), replay to exactly the records the client
// framed, bit-identical coordinates and snapped cells included.
func TestClusterBinaryDurableReplay(t *testing.T) {
	grid := geo.MustGrid(16, 16, 1)
	mgr, err := policy.NewManager(grid, policy.Baseline(grid), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := wal.Open(dir, wal.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	db, err := server.NewDBOn(grid, store)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewServerOpts(db, mgr, server.Options{AsyncIngest: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ring, err := cluster.ParseRing([]byte(fmt.Sprintf(
		`{"partitions":4,"nodes":[{"name":"n0","url":%q,"partitions":[0,1,2,3]}]}`, ts.URL)))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := cluster.New(cluster.Config{Ring: ring, RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()
	defer rt.Stop()

	const user = 3
	releases := []wire.Release{
		{T: 0, X: 1.0000000000000002, Y: 15.999999999999998},
		{T: 1, X: 7.25, Y: 0.5},
		{T: 2, X: 3.3333333333333335, Y: 9.9},
	}
	status, e := postBody(t, rts.URL+"/v2/reports?mode=async", wire.ContentTypeBinary,
		wire.AppendBinaryReport(nil, user, 1, releases))
	if status != http.StatusAccepted {
		t.Fatalf("async binary through router: status %d (%+v)", status, e)
	}

	// Wait (through the router) for the drain to reach the stripes.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st wire.IngestStatsResponse
		if code := getJSON(t, rts.URL+"/v2/ingest/stats", &st); code != http.StatusOK {
			t.Fatalf("ingest stats: status %d", code)
		}
		if st.Drained >= uint64(len(releases)) && st.Depth == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never drained: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.DrainIngest(context.Background()); err != nil {
		t.Fatal(err)
	}

	// SIGKILL: abandon the live store without Close and replay the
	// directory cold.
	reopened, err := wal.Open(dir, wal.Options{Shards: 4})
	if err != nil {
		t.Fatalf("reopening WAL dir after simulated crash: %v", err)
	}
	defer reopened.Close()
	recs := reopened.UserRecords(user)
	if len(recs) != len(releases) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(releases))
	}
	for i, rel := range releases {
		got := recs[i]
		if got.T != rel.T {
			t.Errorf("record %d: t=%d, want %d", i, got.T, rel.T)
		}
		if math.Float64bits(got.Point.X) != math.Float64bits(rel.X) ||
			math.Float64bits(got.Point.Y) != math.Float64bits(rel.Y) {
			t.Errorf("record %d: replayed (%v,%v), sent (%v,%v)", i, got.Point.X, got.Point.Y, rel.X, rel.Y)
		}
		if want := grid.Snap(geo.Pt(rel.X, rel.Y)); got.Cell != want {
			t.Errorf("record %d: cell %d, want snapped %d", i, got.Cell, want)
		}
		if got.PolicyVersion != 1 {
			t.Errorf("record %d: policy version %d, want 1", i, got.PolicyVersion)
		}
	}
}
