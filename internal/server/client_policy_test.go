package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pglp/panda/internal/policy"
	"github.com/pglp/panda/internal/server/wire"
)

// graphDownloads counts a client's graph downloads (GET
// /v2/policy?graph=1) on their way to its transport.
type graphDownloads struct {
	base http.RoundTripper
	n    atomic.Int64
}

func (d *graphDownloads) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/v2/policy" && req.URL.Query().Get("graph") == "1" {
		d.n.Add(1)
	}
	return d.base.RoundTrip(req)
}

// countDownloads puts a graphDownloads in front of the client's
// transport.
func countDownloads(c *Client) *graphDownloads {
	d := &graphDownloads{base: c.hc.Transport}
	c.hc.Transport = d
	return d
}

// TestClientSharesPolicyGraph: users whose policies name one graph ID
// share one decoded graph, whether the policy was fetched or arrived
// inline in a 409, and the graph is downloaded once; a new ID gets its
// own graph, and a graph no cached policy holds any more is dropped.
func TestClientSharesPolicyGraph(t *testing.T) {
	srv, client, grid, done := newTestServer(t)
	defer done()
	downloads := countDownloads(client)
	for u := 0; u < 2; u++ {
		if _, err := client.PolicyContext(t.Context(), u); err != nil {
			t.Fatal(err)
		}
	}
	if n := downloads.n.Load(); n != 1 {
		t.Errorf("two users on the base graph: %d downloads, want 1", n)
	}
	base, _ := client.CachedPolicy(0)
	if _, err := client.MarkInfectedContext(t.Context(), []int{5}); err != nil {
		t.Fatal(err)
	}
	a, err := client.PolicyContext(t.Context(), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := client.PolicyContext(t.Context(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph != b.Graph || a.GraphID != b.GraphID || a.GraphID != srv.mgr.Get(0).GraphID {
		t.Error("two users' fetched policies name different graphs, or not the server's")
	}
	// User 1 still holds v1: the report draws a 409 whose inline head
	// names the graph the client already holds.
	if _, err := client.ReportBatchContext(t.Context(), 1, oneRelease(0, grid.Center(1))); err != nil {
		t.Fatal(err)
	}
	if cp, _ := client.CachedPolicy(1); cp.Version != 2 || cp.Graph != a.Graph {
		t.Errorf("policy adopted from the 409: version %d, shared graph %v; want version 2 sharing the fetched graph",
			cp.Version, cp.Graph == a.Graph)
	}
	if n := downloads.n.Load(); n != 2 {
		t.Errorf("after one mark: %d downloads, want 2 (one per graph)", n)
	}
	if _, err := client.MarkInfectedContext(t.Context(), []int{6}); err != nil {
		t.Fatal(err)
	}
	c, err := client.PolicyContext(t.Context(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Graph == a.Graph || c.GraphID == a.GraphID || !c.Graph.Equal(srv.mgr.Get(2).Graph) {
		t.Error("the second mark's policy should name its own graph, equal to the marked graph")
	}
	client.mu.Lock()
	_, keptBase := client.graphs[base.GraphID]
	kept := len(client.graphs)
	client.mu.Unlock()
	if keptBase || kept != 2 {
		t.Errorf("the client keeps %d graphs (base graph kept: %v); want 2, the ones its users hold", kept, keptBase)
	}
}

// TestPolicyBodiesUnchanged: GET /v2/policy and the 409 stale_policy
// envelope (JSON and binary reports) write exactly what encoding the
// wire struct with the policy head writes, and GET /v2/policy?graph=1
// what encoding it with json.Marshal(graph) as well writes, for a user
// before and after one and two marks, users who join after them, and a
// manager at ε = 2. The head's graph_id is the hex of the first 16
// bytes of the graph encoding's SHA-256, and the head alone stays under
// 128 bytes.
func TestPolicyBodiesUnchanged(t *testing.T) {
	srv, client, grid, done := newTestServer(t)
	defer done()
	encode := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}
	send := func(base, method, path, contentType string, body []byte) (int, string) {
		req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(got)
	}
	check := func(srv *Server, base string, user int) {
		t.Helper()
		up := srv.mgr.Get(user)
		graph, err := json.Marshal(up.Graph)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(graph)
		head := wire.Policy{User: user, Epsilon: up.Epsilon, Version: up.Version, GraphID: hex.EncodeToString(sum[:16])}
		full := head
		full.Graph = graph
		stale := encode(wire.Error{
			Error:  fmt.Sprintf("stale policy version %d (current %d)", up.Version+1, up.Version),
			Code:   wire.CodeStalePolicy,
			Policy: &head,
		})
		p := grid.Center(0)
		jsonReport := fmt.Sprintf(`{"user":%d,"policy_version":%d,"releases":[{"t":0,"x":%v,"y":%v}]}`,
			user, up.Version+1, p.X, p.Y)
		binReport := wire.AppendBinaryReport(nil, user, up.Version+1, []wire.Release{{T: 0, X: p.X, Y: p.Y}})
		for _, tc := range []struct {
			name, method, path, contentType string
			body                            []byte
			status                          int
			want                            string
		}{
			{"GET /v2/policy", http.MethodGet, fmt.Sprintf("/v2/policy?user=%d", user), "", nil, http.StatusOK, encode(head)},
			{"GET /v2/policy?graph=1", http.MethodGet, fmt.Sprintf("/v2/policy?user=%d&graph=1", user), "", nil, http.StatusOK, encode(full)},
			{"409 JSON report", http.MethodPost, "/v2/reports", "application/json", []byte(jsonReport), http.StatusConflict, stale},
			{"409 binary report", http.MethodPost, "/v2/reports", wire.ContentTypeBinary, binReport, http.StatusConflict, stale},
		} {
			status, got := send(base, tc.method, tc.path, tc.contentType, tc.body)
			if status != tc.status || got != tc.want {
				t.Errorf("user %d, %s: status %d, body differs from the reference encoding: %t\n got %.120s\nwant %.120s",
					user, tc.name, status, got != tc.want, got, tc.want)
			}
		}
		if n := len(encode(head)); n >= 128 {
			t.Errorf("user %d: the policy head is %d bytes, want under 128", user, n)
		}
	}
	base := client.baseURL()
	check(srv, base, 0)
	for i, cell := range []int{5, 6} {
		if _, err := client.MarkInfectedContext(t.Context(), []int{cell}); err != nil {
			t.Fatal(err)
		}
		for user := 0; user <= i+1; user++ {
			check(srv, base, user)
		}
	}
	mgr, err := policy.NewManager(grid, policy.Baseline(grid), 2)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := NewServerOpts(newDB(t, grid, 4), mgr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv2.Handler())
	defer ts.Close()
	check(srv2, ts.URL, 0)
}

// TestPolicyHeadEncodingFailure: a policy whose head encoding/json
// refuses (a NaN ε, which the manager no longer hands out) answers 500
// internal, not a 200 with an empty body.
func TestPolicyHeadEncodingFailure(t *testing.T) {
	for _, tc := range []struct {
		env   *wire.Error
		graph bool
	}{
		{nil, false},
		{nil, true},
		{&wire.Error{Error: "stale", Code: wire.CodeStalePolicy}, false},
	} {
		rec := httptest.NewRecorder()
		writePolicy(rec, http.StatusOK, tc.env, 1, policy.UserPolicy{Epsilon: math.NaN(), GraphJSON: []byte(`{}`)}, tc.graph)
		var e wire.Error
		if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusInternalServerError || err != nil || e.Code != wire.CodeInternal {
			t.Errorf("envelope %v, graph %v: status %d, body %q; want 500 %s", tc.env != nil, tc.graph, rec.Code, rec.Body, wire.CodeInternal)
		}
	}
}

// TestClientPolicyConcurrent has several users fetch policies and report
// across a mark; run it under -race. Each must end on the marked policy.
func TestClientPolicyConcurrent(t *testing.T) {
	_, client, grid, done := newTestServer(t)
	defer done()
	const users = 6
	var fetched, wg sync.WaitGroup
	fetched.Add(users)
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			_, err := client.PolicyContext(t.Context(), u)
			fetched.Done()
			if err != nil {
				t.Error(err)
				return
			}
			deadline := time.Now().Add(10 * time.Second)
			for step := 0; ; step++ {
				if _, err := client.ReportBatchContext(t.Context(), u, oneRelease(step, grid.Center(u))); err != nil {
					t.Error(err)
					return
				}
				if cp, _ := client.CachedPolicy(u); cp.Version == 2 {
					return
				}
				if time.Now().After(deadline) {
					t.Errorf("user %d never saw the marked policy", u)
					return
				}
				if step%2 == 1 {
					if _, err := client.PolicyContext(t.Context(), u); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(u)
	}
	fetched.Wait()
	if _, err := client.MarkInfectedContext(t.Context(), []int{15}); err != nil {
		t.Error(err)
	}
	wg.Wait()
	first, _ := client.CachedPolicy(0)
	for u := 0; u < users; u++ {
		cp, _ := client.CachedPolicy(u)
		if cp.Version != 2 || cp.Graph == nil || cp.Graph.Degree(15) != 0 || !cp.Graph.Equal(first.Graph) {
			t.Errorf("user %d ended on version %d; want 2 with cell 15 isolated and the same graph as user 0", u, cp.Version)
		}
	}
}

// TestClientReusesConnections: two goroutines share one client through
// renegotiation rounds that mix small responses (policy heads, 409s)
// with responses over net/http's 2 KB auto-length buffer — a graph
// download each round, density series at block 1x1, a records page —
// and the server accepts no more connections than there are goroutines.
func TestClientReusesConnections(t *testing.T) {
	client, grid, dials, done := newBenchServer(t, 4)
	defer done()
	const (
		workers = 2
		rounds  = 4
		steps   = 40 // a records page of about 2.5 KB
	)
	// Without a cap, a transport whose demand rises while a dial is in
	// flight may dial once more and pool the spare. With one connection
	// per goroutine, a dial past the first two means one was dropped.
	client.hc.Transport.(*http.Transport).MaxConnsPerHost = workers
	var wg sync.WaitGroup
	for round := 0; round < rounds; round++ {
		for user := 0; user < workers; user++ {
			wg.Add(1)
			go func(user int) {
				defer wg.Done()
				releases := make([]wire.Release, steps)
				for i := range releases {
					p := grid.Center((user*steps + i) % grid.NumCells())
					releases[i] = wire.Release{T: i, X: p.X, Y: p.Y}
				}
				// After a mark the cached version is stale: the report
				// draws a 409, whose new graph the client downloads, and
				// is re-sent under the inline policy.
				ack, err := client.ReportBatchContext(t.Context(), user, releases)
				if err != nil {
					t.Error(err)
					return
				}
				if ack.PolicyVersion != round+1 {
					t.Errorf("round %d, user %d: report accepted under version %d, want %d",
						round, user, ack.PolicyVersion, round+1)
				}
				if _, err := client.PolicyContext(t.Context(), user); err != nil {
					t.Error(err)
				}
				if _, err := client.DensitySeriesContext(t.Context(), 0, 23, 1, 1); err != nil {
					t.Error(err)
				}
				if page, err := client.RecordsPageContext(t.Context(), user, "", steps); err != nil || len(page.Records) != steps {
					t.Errorf("records page: %d records, error %v; want %d", len(page.Records), err, steps)
				}
			}(user)
		}
		wg.Wait()
		if _, err := client.MarkInfectedContext(t.Context(), []int{round}); err != nil {
			t.Fatal(err)
		}
	}
	if n := dials.Load(); n > workers {
		t.Errorf("the server accepted %d connections for %d goroutines; responses are not read to their end", n, workers)
	}
}
