package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/pglp/panda/internal/policy"
	"github.com/pglp/panda/internal/policygraph"
	"github.com/pglp/panda/internal/server/wire"
)

// TestClientSharesPolicyGraph: users whose policy bodies are byte-equal
// share one decoded graph, whether the policy was fetched or arrived
// inline in a 409; a different body gets its own graph.
func TestClientSharesPolicyGraph(t *testing.T) {
	srv, client, grid, done := newTestServer(t)
	defer done()
	for u := 0; u < 2; u++ {
		if _, err := client.PolicyContext(t.Context(), u); err != nil {
			t.Fatal(err)
		}
	}
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
	if a.Graph != b.Graph {
		t.Error("two users' fetched policies hold different graphs for the same body")
	}
	// User 1 still holds v1: the report draws a 409 whose inline policy
	// carries the same graph body.
	if _, err := client.ReportBatchContext(t.Context(), 1, oneRelease(0, grid.Center(1))); err != nil {
		t.Fatal(err)
	}
	if cp, _ := client.CachedPolicy(1); cp.Version != 2 || cp.Graph != a.Graph {
		t.Errorf("policy adopted from the 409: version %d, shared graph %v; want version 2 sharing the fetched graph",
			cp.Version, cp.Graph == a.Graph)
	}
	if _, err := client.MarkInfectedContext(t.Context(), []int{6}); err != nil {
		t.Fatal(err)
	}
	c, err := client.PolicyContext(t.Context(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Graph == a.Graph || !c.Graph.Equal(srv.mgr.Get(2).Graph) {
		t.Error("the second mark's body should decode to its own graph, equal to the marked graph")
	}
}

// TestClientKeepsItsOwnPolicyBody: a caller that modifies a policy body it
// handed to the client (an APIError's inline policy is the caller's)
// cannot change what the client matches later bodies against.
func TestClientKeepsItsOwnPolicyBody(t *testing.T) {
	_, client, grid, done := newTestServer(t)
	defer done()
	body, err := json.Marshal(policygraph.GridEightNeighbor(grid))
	if err != nil {
		t.Fatal(err)
	}
	orig := bytes.Clone(body)
	first, err := client.adoptPolicy(0, wire.Policy{User: 0, Epsilon: 1, Version: 1, Graph: body})
	if err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = ' '
	}
	second, err := client.adoptPolicy(1, wire.Policy{User: 1, Epsilon: 1, Version: 1, Graph: orig})
	if err != nil {
		t.Fatal(err)
	}
	if second.Graph != first.Graph {
		t.Error("the client matched against the caller's body instead of its own copy")
	}
}

// TestPolicyBodiesUnchanged: GET /v2/policy and the 409 stale_policy
// envelope (JSON and binary reports) write exactly what encoding the
// wire struct around json.Marshal(graph) writes, for a user before and
// after one and two marks, users who join after them, and a manager at
// ε = 2.
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
		pol := wire.Policy{User: user, Epsilon: up.Epsilon, Version: up.Version, Graph: graph}
		stale := encode(wire.Error{
			Error:  fmt.Sprintf("stale policy version %d (current %d)", up.Version+1, up.Version),
			Code:   wire.CodeStalePolicy,
			Policy: &pol,
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
			{"GET /v2/policy", http.MethodGet, fmt.Sprintf("/v2/policy?user=%d", user), "", nil, http.StatusOK, encode(pol)},
			{"409 JSON report", http.MethodPost, "/v2/reports", "application/json", []byte(jsonReport), http.StatusConflict, stale},
			{"409 binary report", http.MethodPost, "/v2/reports", wire.ContentTypeBinary, binReport, http.StatusConflict, stale},
		} {
			status, got := send(base, tc.method, tc.path, tc.contentType, tc.body)
			if status != tc.status || got != tc.want {
				t.Errorf("user %d, %s: status %d, body differs from the reference encoding: %t\n got %.120s\nwant %.120s",
					user, tc.name, status, got != tc.want, got, tc.want)
			}
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
	srv2, err := NewServer(newDB(t, grid, 4), mgr)
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
	for _, env := range []*wire.Error{nil, {Error: "stale", Code: wire.CodeStalePolicy}} {
		rec := httptest.NewRecorder()
		writePolicy(rec, http.StatusOK, env, 1, policy.UserPolicy{Epsilon: math.NaN(), GraphJSON: []byte(`{}`)})
		var e wire.Error
		if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusInternalServerError || err != nil || e.Code != wire.CodeInternal {
			t.Errorf("envelope %v: status %d, body %q; want 500 %s", env != nil, rec.Code, rec.Body, wire.CodeInternal)
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
// renegotiation rounds whose responses are all over net/http's 2 KB
// auto-length buffer — policy fetches, density series at block 1x1, a
// records page, reports that draw a 409 with the graph inline — and the
// server accepts no more connections than there are goroutines.
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
				// draws a 409 and is re-sent under the inline policy.
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
