package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pglp/panda/internal/cluster"
	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policy"
	"github.com/pglp/panda/internal/policygraph"
	"github.com/pglp/panda/internal/server"
	"github.com/pglp/panda/internal/server/storage"
	"github.com/pglp/panda/internal/server/wire"
)

// flakyNode wraps a node's handler with a kill switch: while down, every
// connection is torn down mid-request — the transport failure a crashed
// process produces — without losing the node's state, so tests can
// exercise both the fail-fast path and recovery.
type flakyNode struct {
	h    http.Handler
	down atomic.Bool
}

func (f *flakyNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.down.Load() {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
		return
	}
	f.h.ServeHTTP(w, r)
}

// fleet is a 2-node cluster plus its router, all in-process.
type fleet struct {
	ring      *cluster.Ring
	router    *cluster.Router
	routerURL string
	nodeURLs  []string
	flaky     []*flakyNode
}

// startFleet builds n nodes (16x16 grid, baseline policy, optionally
// async ingest) behind a router with round-robin partition ownership.
func startFleet(t *testing.T, n int, async bool) *fleet {
	t.Helper()
	const partitions = 8
	nodes := make([]cluster.Node, n)
	f := &fleet{}
	for i := 0; i < n; i++ {
		grid := geo.MustGrid(16, 16, 1)
		mgr, err := policy.NewManager(grid, policy.Baseline(grid), 1.0)
		if err != nil {
			t.Fatal(err)
		}
		db, err := server.NewDBOn(grid, storage.NewShardedStore(4))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.NewServerOpts(db, mgr, server.Options{AsyncIngest: async})
		if err != nil {
			t.Fatal(err)
		}
		fn := &flakyNode{h: srv.Handler()}
		ts := httptest.NewServer(fn)
		t.Cleanup(ts.Close)
		if async {
			t.Cleanup(func() { srv.DrainIngest(context.Background()) })
		}
		var owned []int
		for p := i; p < partitions; p += n {
			owned = append(owned, p)
		}
		nodes[i] = cluster.Node{Name: fmt.Sprintf("node%d", i), URL: ts.URL, Partitions: owned}
		f.nodeURLs = append(f.nodeURLs, ts.URL)
		f.flaky = append(f.flaky, fn)
	}
	ringJSON, err := json.Marshal(cluster.Ring{Partitions: partitions, Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	if f.ring, err = cluster.ParseRing(ringJSON); err != nil {
		t.Fatal(err)
	}
	// No background Start: tests drive probes explicitly via ProbeOnce so
	// state transitions are deterministic.
	if f.router, err = cluster.New(cluster.Config{Ring: f.ring, RequestTimeout: 5 * time.Second}); err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(f.router.Handler())
	t.Cleanup(rts.Close)
	t.Cleanup(f.router.Stop)
	f.routerURL = rts.URL
	return f
}

// getJSON decodes a GET into out, returning the status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestClusterEndToEnd is the acceptance scenario: data ingested through
// the router lands only on the owning node, and every merged analytics
// answer exactly equals a single-node reference fed the same data.
func TestClusterEndToEnd(t *testing.T) {
	const users, steps = 13, 8
	f := startFleet(t, 2, false)

	// The single-node reference: same grid, same policy, all the data.
	refGrid := geo.MustGrid(16, 16, 1)
	refMgr, err := policy.NewManager(refGrid, policy.Baseline(refGrid), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	refDB, err := server.NewDBOn(refGrid, storage.NewShardedStore(4))
	if err != nil {
		t.Fatal(err)
	}
	refSrv, err := server.NewServerOpts(refDB, refMgr, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	refTS := httptest.NewServer(refSrv.Handler())
	defer refTS.Close()

	via := server.NewClient(f.routerURL, nil)
	ref := server.NewClient(refTS.URL, nil)
	for u := 0; u < users; u++ {
		releases := make([]wire.Release, steps)
		for i := range releases {
			releases[i] = wire.Release{T: i, X: float64((u*3 + i) % 16), Y: float64((u + 2*i) % 16)}
		}
		if _, err := via.ReportBatchContext(t.Context(), u, releases); err != nil {
			t.Fatalf("user %d via router: %v", u, err)
		}
		if _, err := ref.ReportBatchContext(t.Context(), u, releases); err != nil {
			t.Fatalf("user %d via reference: %v", u, err)
		}
	}

	// Ownership: each user's records live on exactly the owning node.
	for u := 0; u < users; u++ {
		owner := f.ring.OwnerIndex(u)
		for i, nodeURL := range f.nodeURLs {
			var page wire.RecordsPage
			if st := getJSON(t, fmt.Sprintf("%s/v2/records?user=%d", nodeURL, u), &page); st != http.StatusOK {
				t.Fatalf("node %d records: status %d", i, st)
			}
			if i == owner && len(page.Records) != steps {
				t.Errorf("user %d: owning node %d has %d records, want %d", u, i, len(page.Records), steps)
			}
			if i != owner && len(page.Records) != 0 {
				t.Errorf("user %d: non-owning node %d has %d records, want 0", u, i, len(page.Records))
			}
		}
		// And the router serves them back from the owner transparently.
		recs, err := via.RecordsContext(t.Context(), u)
		if err != nil || len(recs) != steps {
			t.Errorf("user %d via router: %d records err=%v, want %d", u, len(recs), err, steps)
		}
	}

	// Infection notice: broadcast through the router; the union of
	// changed users must match the single-node answer.
	cells := []int{0, 1, 17, 34, 100}
	viaChanged, err := via.MarkInfectedContext(t.Context(), cells)
	if err != nil {
		t.Fatal(err)
	}
	refChanged, err := ref.MarkInfectedContext(t.Context(), cells)
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(refChanged)
	if !reflect.DeepEqual(viaChanged, refChanged) {
		t.Errorf("changed via router = %v, reference = %v", viaChanged, refChanged)
	}

	// Merged analytics == single-node reference, exactly.
	for ti := 0; ti < steps; ti++ {
		got, err := via.DensityContext(t.Context(), ti, 4, 4)
		if err != nil {
			t.Fatalf("density t=%d via router: %v", ti, err)
		}
		want, err := ref.DensityContext(t.Context(), ti, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("density t=%d: router %v != reference %v", ti, got, want)
		}
	}
	gotSeries, err := via.DensitySeriesContext(t.Context(), 0, steps-1, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantSeries, err := ref.DensitySeriesContext(t.Context(), 0, steps-1, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSeries, wantSeries) {
		t.Errorf("density series: router %v != reference %v", gotSeries, wantSeries)
	}
	gotExp, err := via.ExposureContext(t.Context(), 0, steps-1)
	if err != nil {
		t.Fatal(err)
	}
	wantExp, err := ref.ExposureContext(t.Context(), 0, steps-1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotExp, wantExp) {
		t.Errorf("exposure: router %v != reference %v", gotExp, wantExp)
	}
	// Census and health codes with now omitted: the router must resolve
	// the anchor cluster-wide, or per-node anchors would skew the tally.
	// Each node takes green as its own user count minus its reds and
	// yellows, so the per-node sums must still add up with a window.
	for _, q := range []struct{ window, now int }{{0, -1}, {3, -1}, {3, 4}} {
		gotCensus, err := via.CensusContext(t.Context(), q.window, q.now)
		if err != nil {
			t.Fatal(err)
		}
		wantCensus, err := ref.CensusContext(t.Context(), q.window, q.now)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotCensus, wantCensus) {
			t.Errorf("census window=%d now=%d: router %v != reference %v", q.window, q.now, gotCensus, wantCensus)
		}
	}
	for _, u := range []int{0, 1, 5, 12} {
		got, err := via.HealthCodeContext(t.Context(), u, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.HealthCodeContext(t.Context(), u, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("healthcode user %d: router %q != reference %q", u, got, want)
		}
	}

	// The composite Gen is the sum of per-node generations and stays
	// monotone across writes — the epoch/Gen contract through the router.
	var d1 wire.DensityResponse
	getJSON(t, f.routerURL+"/v2/density?t=0&block_rows=4&block_cols=4", &d1)
	var sum uint64
	for _, nodeURL := range f.nodeURLs {
		var nd wire.DensityResponse
		getJSON(t, nodeURL+"/v2/density?t=0&block_rows=4&block_cols=4", &nd)
		sum += nd.Gen
	}
	if d1.Gen == 0 || d1.Gen != sum {
		t.Errorf("router gen = %d, want the per-node sum %d (nonzero)", d1.Gen, sum)
	}
	if _, err := via.ReportBatchContext(t.Context(), 0, []wire.Release{{T: 0, X: 3, Y: 3}}); err != nil {
		t.Fatal(err)
	}
	var d2 wire.DensityResponse
	getJSON(t, f.routerURL+"/v2/density?t=0&block_rows=4&block_cols=4", &d2)
	if d2.Gen <= d1.Gen {
		t.Errorf("gen after write = %d, want > %d", d2.Gen, d1.Gen)
	}

	// Cluster healthz: all up, composite epoch = sum of node epochs.
	var ch wire.ClusterHealthzResponse
	if st := getJSON(t, f.routerURL+"/v2/healthz", &ch); st != http.StatusOK {
		t.Fatalf("cluster healthz status %d", st)
	}
	if ch.Status != "ok" || ch.Partitions != 8 || len(ch.Nodes) != 2 {
		t.Errorf("cluster healthz = %+v", ch)
	}
	var epochSum uint64
	for i, ns := range ch.Nodes {
		if !ns.Up || ns.Records == 0 {
			t.Errorf("node %d status = %+v, want up with records", i, ns)
		}
		epochSum += ns.Epoch
	}
	if ch.ClusterEpoch == 0 || ch.ClusterEpoch != epochSum {
		t.Errorf("cluster epoch = %d, want nonzero sum %d", ch.ClusterEpoch, epochSum)
	}
}

// TestClusterFailFast: with one node dead, requests touching it answer
// an immediate 503 naming the node; requests owned by the live node
// keep working; recovery needs one successful probe.
func TestClusterFailFast(t *testing.T) {
	f := startFleet(t, 2, false)
	via := server.NewClient(f.routerURL, nil, server.WithRetry(server.RetryPolicy{MaxAttempts: 1}))

	// Find one user per node.
	userOn := map[int]int{}
	for u := 0; len(userOn) < 2; u++ {
		if _, ok := userOn[f.ring.OwnerIndex(u)]; !ok {
			userOn[f.ring.OwnerIndex(u)] = u
		}
	}
	for _, u := range userOn {
		if _, err := via.ReportBatchContext(t.Context(), u, []wire.Release{{T: 0, X: 1, Y: 1}}); err != nil {
			t.Fatal(err)
		}
	}

	f.flaky[1].down.Store(true)

	// First touch discovers the outage (a fast transport error), every
	// later touch fails from state without dialing.
	for attempt := 0; attempt < 2; attempt++ {
		start := time.Now()
		resp, err := http.Get(fmt.Sprintf("%s/v2/records?user=%d", f.routerURL, userOn[1]))
		if err != nil {
			t.Fatal(err)
		}
		var e wire.Error
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || e.Code != wire.CodeNodeDown || e.Node != "node1" {
			t.Fatalf("attempt %d: status=%d envelope=%+v, want 503 node_unavailable naming node1", attempt, resp.StatusCode, e)
		}
		if resp.Header.Get("Retry-After") == "" || e.RetryAfterMS <= 0 {
			t.Errorf("attempt %d: missing retry hints (header %q, envelope %d)", attempt, resp.Header.Get("Retry-After"), e.RetryAfterMS)
		}
		if elapsed := time.Since(start); elapsed > 3*time.Second {
			t.Errorf("attempt %d took %v, want a fail-fast error", attempt, elapsed)
		}
	}

	// The typed client surfaces the node name and the retry hint.
	if _, err := via.RecordsContext(t.Context(), userOn[1]); err == nil {
		t.Error("records on the dead node's user: want an error")
	} else if ae, ok := err.(*server.APIError); !ok || ae.Node != "node1" || ae.RetryAfter <= 0 {
		t.Errorf("client error = %#v, want APIError naming node1 with a retry hint", err)
	}

	// Scatter queries fail whole rather than silently undercount.
	resp, err := http.Get(f.routerURL + "/v2/density?t=0&block_rows=4&block_cols=4")
	if err != nil {
		t.Fatal(err)
	}
	var e wire.Error
	_ = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || e.Node != "node1" {
		t.Errorf("scatter with a dead node: status=%d envelope=%+v, want 503 naming node1", resp.StatusCode, e)
	}

	// Users on the live node are unaffected.
	if recs, err := via.RecordsContext(t.Context(), userOn[0]); err != nil || len(recs) != 1 {
		t.Errorf("live node user: %d records err=%v", len(recs), err)
	}

	// The fleet view reflects the outage.
	var ch wire.ClusterHealthzResponse
	if st := getJSON(t, f.routerURL+"/v2/healthz", &ch); st != http.StatusServiceUnavailable {
		t.Fatalf("degraded healthz status %d, want 503", st)
	}
	if ch.Status != "degraded" || ch.Nodes[1].Up || ch.Nodes[1].Error == "" {
		t.Errorf("degraded healthz = %+v", ch)
	}

	// Recovery: the node comes back, one probe marks it up, traffic flows.
	f.flaky[1].down.Store(false)
	f.router.ProbeOnce(context.Background())
	if recs, err := via.RecordsContext(t.Context(), userOn[1]); err != nil || len(recs) != 1 {
		t.Errorf("after recovery: %d records err=%v", len(recs), err)
	}
	if st := getJSON(t, f.routerURL+"/v2/healthz", nil); st != http.StatusOK {
		t.Errorf("healthz after recovery = %d", st)
	}
}

// TestClusterInfectedWhileNodeDown: with a node known to be down, an
// infection notice is refused before any node takes it, so the live
// nodes do not move to a new policy version alone; once the node is
// back, the retried notice reaches every node.
func TestClusterInfectedWhileNodeDown(t *testing.T) {
	f := startFleet(t, 2, false)
	userOn := map[int]int{}
	for u := 0; len(userOn) < 2; u++ {
		if _, ok := userOn[f.ring.OwnerIndex(u)]; !ok {
			userOn[f.ring.OwnerIndex(u)] = u
		}
	}
	// version reads the policy version of node i's user from node i
	// itself, bypassing the router.
	version := func(i int) int {
		t.Helper()
		var p wire.Policy
		if st := getJSON(t, fmt.Sprintf("%s/v2/policy?user=%d", f.nodeURLs[i], userOn[i]), &p); st != http.StatusOK {
			t.Fatalf("node%d policy: status %d", i, st)
		}
		return p.Version
	}
	for i := range f.nodeURLs {
		if v := version(i); v != 1 {
			t.Fatalf("node%d user at version %d before the notice, want 1", i, v)
		}
	}

	f.flaky[1].down.Store(true)
	f.router.ProbeOnce(context.Background())
	notice := []byte(`{"cells":[17]}`)
	st, e := postBody(t, f.routerURL+"/v2/infected", "application/json", notice)
	if st != http.StatusServiceUnavailable || e.Code != wire.CodeNodeDown || e.Node != "node1" {
		t.Fatalf("notice with node1 down: status=%d envelope=%+v, want 503 node_unavailable naming node1", st, e)
	}
	if v := version(0); v != 1 {
		t.Errorf("node0 user at version %d after a refused notice, want 1 (the live node must not take it alone)", v)
	}

	f.flaky[1].down.Store(false)
	f.router.ProbeOnce(context.Background())
	if st, e := postBody(t, f.routerURL+"/v2/infected", "application/json", notice); st != http.StatusOK {
		t.Fatalf("retried notice: status=%d envelope=%+v, want 200", st, e)
	}
	for i := range f.nodeURLs {
		if v := version(i); v != 2 {
			t.Errorf("node%d user at version %d after the retried notice, want 2", i, v)
		}
	}
}

// TestClusterMarkVersionsAgree: after a mark broadcast through the
// router, a user on each node holds the same version and graph_id, even
// the one first seen after the mark, because a node's version counts
// its effective marks, not the user's.
func TestClusterMarkVersionsAgree(t *testing.T) {
	f := startFleet(t, 2, false)
	userOn := map[int]int{}
	for u := 0; len(userOn) < 2; u++ {
		if _, ok := userOn[f.ring.OwnerIndex(u)]; !ok {
			userOn[f.ring.OwnerIndex(u)] = u
		}
	}
	policyOf := func(user int) wire.Policy {
		t.Helper()
		var p wire.Policy
		if st := getJSON(t, fmt.Sprintf("%s/v2/policy?user=%d", f.routerURL, user), &p); st != http.StatusOK {
			t.Fatalf("user %d policy: status %d", user, st)
		}
		return p
	}
	if v := policyOf(userOn[0]).Version; v != 1 {
		t.Fatalf("node0 user at version %d before the mark, want 1", v)
	}
	if st, e := postBody(t, f.routerURL+"/v2/infected", "application/json", []byte(`{"cells":[17,40]}`)); st != http.StatusOK {
		t.Fatalf("mark: status=%d envelope=%+v", st, e)
	}
	early, late := policyOf(userOn[0]), policyOf(userOn[1]) // node1's user is first seen now
	if early.Version != 2 || late.Version != 2 || early.GraphID != late.GraphID {
		t.Errorf("after one mark: node0's early user at v%d graph_id %q, node1's new user at v%d graph_id %q; want both at v2 under one graph_id",
			early.Version, early.GraphID, late.Version, late.GraphID)
	}
}

// TestClusterClientGraphsPerNode: two nodes that took different marks
// hold different graphs under one version. One client, through the
// router, still gives each user the graph of the user's own node,
// whether it fetches the policy or adopts it from a 409: it keeps
// graphs by content ID, which no version shared across nodes can alias.
func TestClusterClientGraphsPerNode(t *testing.T) {
	f := startFleet(t, 2, false)
	via := server.NewClient(f.routerURL, nil)
	userOn := map[int][]int{} // node index -> two users it owns
	for u := 0; len(userOn[0]) < 2 || len(userOn[1]) < 2; u++ {
		if i := f.ring.OwnerIndex(u); len(userOn[i]) < 2 {
			userOn[i] = append(userOn[i], u)
		}
	}
	for i := range f.nodeURLs {
		for _, u := range userOn[i] {
			if _, err := via.PolicyContext(t.Context(), u); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Each node takes its own mark, bypassing the router's broadcast, so
	// both nodes' users are at v2 under different graphs.
	cells := []int{5, 6}
	for i, cell := range cells {
		if st, e := postBody(t, f.nodeURLs[i]+"/v2/infected", "application/json",
			[]byte(fmt.Sprintf(`{"cells":[%d]}`, cell))); st != http.StatusOK {
			t.Fatalf("mark on node%d: status=%d envelope=%+v", i, st, e)
		}
	}
	for i, cell := range cells {
		var own wire.Policy
		if st := getJSON(t, fmt.Sprintf("%s/v2/policy?user=%d&graph=1", f.nodeURLs[i], userOn[i][0]), &own); st != http.StatusOK {
			t.Fatalf("node%d policy: status %d", i, st)
		}
		var want policygraph.Graph
		if err := json.Unmarshal(own.Graph, &want); err != nil {
			t.Fatal(err)
		}
		fetched, err := via.PolicyContext(t.Context(), userOn[i][0])
		if err != nil {
			t.Fatal(err)
		}
		// The second user still holds v1: the report draws a 409 whose
		// head the client adopts before it re-sends.
		if _, err := via.ReportBatchContext(t.Context(), userOn[i][1], []wire.Release{{T: 0, X: 1, Y: 1}}); err != nil {
			t.Fatal(err)
		}
		adopted, _ := via.CachedPolicy(userOn[i][1])
		for how, cp := range map[string]server.ClientPolicy{"fetched": fetched, "adopted from a 409": adopted} {
			if cp.Version != 2 || cp.GraphID != own.GraphID || !cp.Graph.Equal(&want) || cp.Graph.Degree(cell) != 0 {
				t.Errorf("node%d user, policy %s: version %d, graph_id %q (node's %q), node's graph %v; want v2 on the node's graph with cell %d isolated",
					i, how, cp.Version, cp.GraphID, own.GraphID, cp.Graph.Equal(&want), cell)
			}
		}
	}
}

// TestClusterAsyncIngest: async early-acks pass through the router (202
// envelopes intact) and /v2/ingest/stats merges the per-node queues.
func TestClusterAsyncIngest(t *testing.T) {
	f := startFleet(t, 2, true)
	via := server.NewClient(f.routerURL, nil)
	userOn := map[int]int{}
	for u := 0; len(userOn) < 2; u++ {
		if _, ok := userOn[f.ring.OwnerIndex(u)]; !ok {
			userOn[f.ring.OwnerIndex(u)] = u
		}
	}
	for _, u := range userOn {
		ack, err := via.ReportBatchAsyncContext(t.Context(), u, []wire.Release{{T: 0, X: 1, Y: 1}, {T: 1, X: 2, Y: 2}})
		if err != nil {
			t.Fatalf("async batch for user %d: %v", u, err)
		}
		if ack.Queued != 2 || ack.SyncFallback {
			t.Fatalf("ack = %+v, want 2 queued async", ack)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := via.IngestStatsContext(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		if !st.Enabled {
			t.Fatalf("merged stats = %+v, want enabled", st)
		}
		if st.Enqueued >= 4 && st.Depth == 0 {
			if st.Drained < 4 {
				t.Fatalf("merged stats = %+v, want >= 4 drained across nodes", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queues never drained: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The drained records are queryable through the router.
	for _, u := range userOn {
		if recs, err := via.RecordsContext(t.Context(), u); err != nil || len(recs) != 2 {
			t.Fatalf("user %d after drain: %d records err=%v", u, len(recs), err)
		}
	}
}

// TestRetiredRoutes404: the /v1 surface and the /v2/density_series
// alias are gone from both the node and the router. In particular an
// unversioned /v1 report, which once skipped the stale-policy check,
// now stores nothing.
func TestRetiredRoutes404(t *testing.T) {
	f := startFleet(t, 1, false)
	node, router := f.nodeURLs[0], f.routerURL
	for _, tc := range []struct {
		name, base, method, path, body string
	}{
		{"node /v1 report", node, http.MethodPost, "/v1/report", `{"user":1,"t":0,"x":0.5,"y":0.5,"policy_version":1}`},
		{"node /v1 unversioned report", node, http.MethodPost, "/v1/report", `{"user":1,"t":1,"x":0.5,"y":0.5}`},
		{"node /v1 policy", node, http.MethodGet, "/v1/policy?user=1", ""},
		{"node series alias", node, http.MethodGet, "/v2/density_series?t0=0&t1=1&block_rows=2&block_cols=2", ""},
		{"router series alias", router, http.MethodGet, "/v2/density_series?t0=0&t1=1&block_rows=2&block_cols=2", ""},
	} {
		req, err := http.NewRequest(tc.method, tc.base+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", tc.name, resp.StatusCode)
		}
	}
	var page wire.RecordsPage
	if status := getJSON(t, node+"/v2/records?user=1", &page); status != http.StatusOK || len(page.Records) != 0 {
		t.Errorf("records after /v1 reports: status %d, %d records, want none stored", status, len(page.Records))
	}
}
