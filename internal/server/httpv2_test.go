package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"github.com/pglp/panda/internal/policy"
	"github.com/pglp/panda/internal/policygraph"
	"github.com/pglp/panda/internal/server/wire"
)

// postV2 POSTs a raw body and decodes the response as a wire error
// envelope (zero-valued for 2xx).
func postV2(t *testing.T, base, path, body string) (int, wire.Error) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e wire.Error
	_ = json.NewDecoder(resp.Body).Decode(&e)
	return resp.StatusCode, e
}

func getV2(t *testing.T, base, path string) (int, wire.Error) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e wire.Error
	_ = json.NewDecoder(resp.Body).Decode(&e)
	return resp.StatusCode, e
}

// TestV2ErrorEnvelopes drives every error path of the /v2 surface and
// checks the uniform {error, code} envelope.
func TestV2ErrorEnvelopes(t *testing.T) {
	_, client, grid, done := newTestServer(t)
	defer done()
	base := client.baseURL()

	p := grid.Center(1)
	report := func(user, ver int, t0 int) string {
		return fmt.Sprintf(`{"user":%d,"policy_version":%d,"releases":[{"t":%d,"x":%v,"y":%v}]}`,
			user, ver, t0, p.X, p.Y)
	}

	posts := []struct {
		name, path, body string
		status           int
		code             string
	}{
		{"bad json", "/v2/reports", "{nope", http.StatusBadRequest, wire.CodeBadRequest},
		{"empty batch", "/v2/reports", `{"user":0,"policy_version":1,"releases":[]}`, http.StatusBadRequest, wire.CodeBadRequest},
		{"missing version", "/v2/reports", `{"user":0,"releases":[{"t":0,"x":0,"y":0}]}`, http.StatusBadRequest, wire.CodeBadRequest},
		{"negative version", "/v2/reports", report(0, -2, 0), http.StatusBadRequest, wire.CodeBadRequest},
		{"stale version", "/v2/reports", report(0, 99, 0), http.StatusConflict, wire.CodeStalePolicy},
		{"negative timestep", "/v2/reports", report(0, 1, -4), http.StatusBadRequest, wire.CodeBadRequest},
		{"bad infected json", "/v2/infected", "[", http.StatusBadRequest, wire.CodeBadRequest},
	}
	for _, tc := range posts {
		status, e := postV2(t, base, tc.path, tc.body)
		if status != tc.status || e.Code != tc.code {
			t.Errorf("%s: status=%d code=%q (%s), want %d %q", tc.name, status, e.Code, e.Error, tc.status, tc.code)
		}
		if e.Error == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}

	gets := []struct{ name, path string }{
		{"records missing user", "/v2/records"},
		{"records bad cursor", "/v2/records?user=0&cursor=%25%25"},
		{"records zero limit", "/v2/records?user=0&limit=0"},
		{"records oversized limit", fmt.Sprintf("/v2/records?user=0&limit=%d", maxPageLimit+1)},
		{"density negative t", "/v2/density?t=-1&block_rows=2&block_cols=2"},
		{"density zero block rows", "/v2/density?t=0&block_rows=0&block_cols=2"},
		{"density zero block", "/v2/density?t=0&block_rows=2&block_cols=0"},
		{"series inverted", "/v2/density/series?t0=2&t1=1&block_rows=2&block_cols=2"},
		{"series negative t0", "/v2/density/series?t0=-2&t1=1&block_rows=2&block_cols=2"},
		{"series over max span", fmt.Sprintf("/v2/density/series?t0=0&t1=%d&block_rows=2&block_cols=2", maxSeriesSpan)},
		{"exposure inverted", "/v2/exposure?t0=2&t1=1"},
		{"healthcode missing user", "/v2/healthcode"},
		{"healthcode zero window", "/v2/healthcode?user=0&window=0"},
		{"healthcode negative now", "/v2/healthcode?user=0&now=-1"},
		{"census negative window", "/v2/census?window=-1"},
		{"policy bad user", "/v2/policy?user=xyz"},
		{"policy bad graph flag", "/v2/policy?user=0&graph=true"},
	}
	for _, tc := range gets {
		status, e := getV2(t, base, tc.path)
		if status != http.StatusBadRequest || e.Code != wire.CodeBadRequest {
			t.Errorf("%s: status=%d code=%q (%s), want 400 %q", tc.name, status, e.Code, e.Error, wire.CodeBadRequest)
		}
	}
}

// TestV2HealthCodeExplicitNow exercises the now parameter over the wire:
// an old infected visit ages out of the window under a later clock.
func TestV2HealthCodeExplicitNow(t *testing.T) {
	srv, client, grid, done := newTestServer(t)
	defer done()
	if _, err := client.MarkInfectedContext(t.Context(), []int{5}); err != nil {
		t.Fatal(err)
	}
	if err := insert(srv.db, Record{User: 2, T: 2, Point: grid.Center(5), Cell: -1}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		now  int
		want HealthCode
	}{
		{10, CodeYellow},
		{30, CodeGreen}, // the t=2 visit has aged out of the 14-step window
	} {
		code, err := client.HealthCodeContext(t.Context(), 2, 14, tc.now)
		if err != nil {
			t.Fatal(err)
		}
		if code != tc.want {
			t.Errorf("now=%d: code = %v, want %v", tc.now, code, tc.want)
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

// TestV2BodyLimit: a JSON body longer than wire.MaxRequestBody is
// refused with 413 even when it decodes to a valid request — here one
// release, or one infected cell, behind that many bytes of whitespace —
// and nothing is applied.
func TestV2BodyLimit(t *testing.T) {
	srv, _, grid, done := newTestServer(t)
	defer done()
	p := grid.Center(1)
	for _, tc := range []struct{ path, body string }{
		{"/v2/reports", fmt.Sprintf(`{"user":0,"policy_version":1,"releases":[{"t":0,"x":%v,"y":%v}]}`, p.X, p.Y)},
		{"/v2/infected", `{"cells":[5]}`},
	} {
		body := io.MultiReader(io.LimitReader(spaces{}, wire.MaxRequestBody), strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, body))
		var e wire.Error
		_ = json.NewDecoder(rec.Body).Decode(&e)
		if rec.Code != http.StatusRequestEntityTooLarge || e.Code != wire.CodeBadRequest {
			t.Errorf("%s: status=%d code=%q (%s), want 413 %q", tc.path, rec.Code, e.Code, e.Error, wire.CodeBadRequest)
		}
	}
	if n := srv.db.Store().Len(); n != 0 {
		t.Errorf("%d records stored from an oversized body, want 0", n)
	}
	if cells := srv.mgr.InfectedCells(); len(cells) != 0 {
		t.Errorf("infected cells = %v after an oversized body, want none", cells)
	}
}

// TestV2StalePolicyCarriesNewPolicy checks the renegotiation envelope: a
// stale report gets a 409 whose body already contains the head of the
// user's current policy, and its graph_id names the graph that
// GET /v2/policy?graph=1 returns, so a client holding that graph needs
// no follow-up round trip.
func TestV2StalePolicyCarriesNewPolicy(t *testing.T) {
	_, client, grid, done := newTestServer(t)
	defer done()
	base := client.baseURL()
	if _, err := client.PolicyContext(t.Context(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := client.MarkInfectedContext(t.Context(), []int{5}); err != nil { // bump to version 2
		t.Fatal(err)
	}
	p := grid.Center(1)
	body := fmt.Sprintf(`{"user":0,"policy_version":1,"releases":[{"t":0,"x":%v,"y":%v}]}`, p.X, p.Y)
	status, e := postV2(t, base, "/v2/reports", body)
	if status != http.StatusConflict || e.Code != wire.CodeStalePolicy {
		t.Fatalf("status=%d code=%q, want 409 stale_policy", status, e.Code)
	}
	if e.Policy == nil {
		t.Fatal("stale_policy envelope missing inline policy")
	}
	if e.Policy.Version != 2 || e.Policy.User != 0 || e.Policy.Graph != nil {
		t.Errorf("inline policy = %+v, want the head of user 0 version 2, without a graph", e.Policy)
	}
	var full wire.Policy
	if st := getJSON(t, base, "/v2/policy?user=0&graph=1", &full); st != http.StatusOK {
		t.Fatalf("GET /v2/policy?graph=1: status %d", st)
	}
	if full.GraphID != e.Policy.GraphID || full.GraphID != policy.GraphID(full.Graph) {
		t.Errorf("409 graph_id %q, graph=1 graph_id %q for a graph that hashes to %q; want all three equal",
			e.Policy.GraphID, full.GraphID, policy.GraphID(full.Graph))
	}
	var g policygraph.Graph
	if err := json.Unmarshal(full.Graph, &g); err != nil {
		t.Fatalf("policy graph: %v", err)
	}
	if g.Degree(5) != 0 {
		t.Error("infected cell should be isolated in the renegotiated policy")
	}
}

// TestV2VersionIsNodeWide: the policy version counts the node's
// effective marks plus one, whenever a user was first seen. A user
// first seen after a mark reports at that version, a stale report's 409
// head carries it, and POST /v2/infected answers every known user,
// ascending.
func TestV2VersionIsNodeWide(t *testing.T) {
	_, client, grid, done := newTestServer(t)
	defer done()
	base := client.baseURL()
	var early wire.Policy
	if st := getJSON(t, base, "/v2/policy?user=12", &early); st != http.StatusOK || early.Version != 1 {
		t.Fatalf("early user: status %d, version %d, want 200 at v1", st, early.Version)
	}
	if changed, err := client.MarkInfectedContext(t.Context(), []int{5}); err != nil || len(changed) != 1 || changed[0] != 12 {
		t.Fatalf("first mark: changed %v (%v), want [12]", changed, err)
	}

	p := grid.Center(1)
	report := func(user, version int) (int, wire.Error) {
		return postV2(t, base, "/v2/reports",
			fmt.Sprintf(`{"user":%d,"policy_version":%d,"releases":[{"t":0,"x":%v,"y":%v}]}`, user, version, p.X, p.Y))
	}
	// User 7 is first seen here: v1 is stale for it too.
	status, e := report(7, 1)
	if status != http.StatusConflict || e.Code != wire.CodeStalePolicy || e.Policy == nil {
		t.Fatalf("new user at v1: status=%d envelope=%+v, want 409 stale_policy with a head", status, e)
	}
	var late wire.Policy
	if st := getJSON(t, base, "/v2/policy?user=12", &late); st != http.StatusOK {
		t.Fatalf("GET /v2/policy: status %d", st)
	}
	if e.Policy.User != 7 || e.Policy.Version != 2 || e.Policy.GraphID != late.GraphID {
		t.Errorf("409 head = %+v, want user 7 at v2 under the early user's graph_id %q", e.Policy, late.GraphID)
	}
	if status, e := report(7, 2); status != http.StatusOK {
		t.Errorf("new user at the node's v2: status=%d envelope=%+v, want 200", status, e)
	}
	if st := getJSON(t, base, "/v2/policy?user=3", &late); st != http.StatusOK || late.Version != 2 {
		t.Errorf("user 3 first seen after one mark: status %d, version %d, want v2", st, late.Version)
	}

	changed, err := client.MarkInfectedContext(t.Context(), []int{6})
	if err != nil || !slices.Equal(changed, []int{3, 7, 12}) {
		t.Errorf("second mark: changed %v (%v), want every known user ascending, [3 7 12]", changed, err)
	}
	resp, err := http.Post(base+"/v2/infected", "application/json", strings.NewReader(`{"cells":[6]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != `{"changed":[]}` {
		t.Errorf("repeated mark: status %d body %s, want 200 {\"changed\":[]}", resp.StatusCode, body)
	}
}

// TestV2BatchReportAndPagination round-trips a batch through the store
// and walks the cursor-paginated listing.
func TestV2BatchReportAndPagination(t *testing.T) {
	_, client, grid, done := newTestServer(t)
	defer done()

	const n = 25
	releases := make([]wire.Release, 0, n)
	for i := 0; i < n; i++ {
		p := grid.Center(i % grid.NumCells())
		releases = append(releases, wire.Release{T: i, X: p.X, Y: p.Y})
	}
	resp, err := client.ReportBatchContext(t.Context(), 3, releases)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != n || resp.Replaced != 0 || resp.PolicyVersion != 1 {
		t.Errorf("batch response = %+v", resp)
	}
	// Re-sending the same batch replaces everything.
	resp, err = client.ReportBatchContext(t.Context(), 3, releases)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 0 || resp.Replaced != n {
		t.Errorf("re-send response = %+v, want all replaced", resp)
	}

	// Page through with limit 10: 10 + 10 + 5.
	var got []wire.Record
	cursor := ""
	pages := 0
	for {
		page, err := client.RecordsPageContext(t.Context(), 3, cursor, 10)
		if err != nil {
			t.Fatal(err)
		}
		pages++
		got = append(got, page.Records...)
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if pages != 3 || len(got) != n {
		t.Fatalf("pages=%d records=%d, want 3 pages of %d total", pages, len(got), n)
	}
	for i, rec := range got {
		if rec.T != i {
			t.Fatalf("record %d has T=%d; pagination must preserve time order", i, rec.T)
		}
	}

	// The drain-everything helper agrees.
	all, err := client.RecordsContext(t.Context(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != n {
		t.Errorf("Records = %d, want %d", len(all), n)
	}
}

// TestV2BatchAtomicValidation: one bad release voids the whole batch.
func TestV2BatchAtomicValidation(t *testing.T) {
	srv, client, grid, done := newTestServer(t)
	defer done()
	base := client.baseURL()
	p := grid.Center(2)
	body := fmt.Sprintf(
		`{"user":4,"policy_version":1,"releases":[{"t":0,"x":%v,"y":%v},{"t":-7,"x":%v,"y":%v}]}`,
		p.X, p.Y, p.X, p.Y)
	status, e := postV2(t, base, "/v2/reports", body)
	if status != http.StatusBadRequest || e.Code != wire.CodeBadRequest {
		t.Fatalf("status=%d code=%q, want 400 bad_request", status, e.Code)
	}
	if n := len(srv.db.Store().UserRecords(4)); n != 0 {
		t.Errorf("%d records stored from an invalid batch, want 0 (atomic)", n)
	}
}

// TestClientAutoPolicyRefresh: a policy bump between reports is absorbed
// transparently — the client adopts the inline policy from the 409 and
// retries once.
func TestClientAutoPolicyRefresh(t *testing.T) {
	_, client, grid, done := newTestServer(t)
	defer done()
	if _, err := client.ReportBatchContext(t.Context(), 0, oneRelease(0, grid.Center(1))); err != nil {
		t.Fatal(err)
	}
	if cp, ok := client.CachedPolicy(0); !ok || cp.Version != 1 {
		t.Fatalf("cached policy = %+v, want version 1", cp)
	}
	// Policy bump behind the client's back.
	if _, err := client.MarkInfectedContext(t.Context(), []int{5}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.ReportBatchContext(t.Context(), 0, oneRelease(1, grid.Center(2))); err != nil {
		t.Fatalf("report after policy bump should auto-refresh, got %v", err)
	}
	cp, ok := client.CachedPolicy(0)
	if !ok || cp.Version != 2 {
		t.Errorf("cached policy after refresh = %+v, want version 2", cp)
	}
	if cp.Graph == nil || cp.Graph.Degree(5) != 0 {
		t.Error("refreshed policy graph should isolate the infected cell")
	}
	if recs, _ := client.RecordsContext(t.Context(), 0); len(recs) != 2 {
		t.Errorf("records = %d, want 2 (retry must not drop the report)", len(recs))
	}
}

// TestClientRoundTrip drives the typed client across the whole /v2
// surface against a live httptest server.
func TestClientRoundTrip(t *testing.T) {
	_, client, grid, done := newTestServer(t)
	defer done()

	for _, r := range []struct{ user, t, cell int }{{0, 0, 0}, {0, 1, 5}, {1, 0, 5}} {
		if _, err := client.ReportBatchContext(t.Context(), r.user, oneRelease(r.t, grid.Center(r.cell))); err != nil {
			t.Fatal(err)
		}
	}

	pol, err := client.PolicyContext(t.Context(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if pol.Epsilon != 1.0 || pol.Version != 1 || pol.Graph == nil {
		t.Errorf("policy = %+v", pol)
	}
	if !pol.Graph.IsConnected() {
		t.Error("baseline policy graph should be connected")
	}

	counts, err := client.DensityContext(t.Context(), 0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 2 { // cells 0 and 5 share the top-left 2x2 region
		t.Errorf("density = %v, want 2 in region 0", counts)
	}
	series, err := client.DensitySeriesContext(t.Context(), 0, 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Errorf("series = %v", series)
	}

	changed, err := client.MarkInfectedContext(t.Context(), []int{5})
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 2 {
		t.Errorf("changed = %v, want both users", changed)
	}
	exposure, err := client.ExposureContext(t.Context(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if exposure[0] != 1 || exposure[1] != 1 {
		t.Errorf("exposure = %v, want [1 1]", exposure)
	}
	code, err := client.HealthCodeContext(t.Context(), 1, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if code != CodeYellow {
		t.Errorf("code = %v, want yellow", code)
	}
	census, err := client.CensusContext(t.Context(), 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if census[CodeYellow] != 2 {
		t.Errorf("census = %v, want 2 yellow", census)
	}
}
