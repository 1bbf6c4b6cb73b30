package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policy"
)

// The count answers as method-less structs: json.Encoder on these writes
// the bytes the handlers wrote before the count answers had a codec of
// their own.
type (
	plainDensity struct {
		T      int    `json:"t"`
		Counts []int  `json:"counts"`
		Gen    uint64 `json:"gen"`
	}
	plainSeries struct {
		T0     int     `json:"t0"`
		T1     int     `json:"t1"`
		Series [][]int `json:"series"`
		Epoch  uint64  `json:"epoch"`
	}
	plainExposure struct {
		T0       int    `json:"t0"`
		T1       int    `json:"t1"`
		Exposure []int  `json:"exposure"`
		Epoch    uint64 `json:"epoch"`
	}
)

// encodePlain returns what json.Encoder writes for v.
func encodePlain(t *testing.T, v any) string {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// newCountsServer serves a 32x32 grid, empty, under the G1 baseline.
func newCountsServer(t *testing.T) (*Server, *Client, *geo.Grid) {
	t.Helper()
	grid := geo.MustGrid(32, 32, 1)
	mgr, err := policy.NewManager(grid, policy.Baseline(grid), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(newDB(t, grid, 4), mgr)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, NewClient(ts.URL, ts.Client()), grid
}

// loadCounts stores 24 steps of 50 users spread over the grid and marks
// three cells infected.
func loadCounts(t *testing.T, srv *Server, grid *geo.Grid) {
	t.Helper()
	var recs []Record
	for u := 0; u < 50; u++ {
		for step := 0; step < 24; step++ {
			recs = append(recs, Record{User: u, T: step, Point: grid.Center((u*37 + step*5) % grid.NumCells()), Cell: -1})
		}
	}
	if _, _, err := srv.db.InsertBatch(recs); err != nil {
		t.Fatal(err)
	}
	srv.mgr.MarkInfected([]int{37, 42, 500})
}

// TestAnalyticsBodiesUnchanged: GET /v2/density, /v2/density/series and
// /v2/exposure write exactly what json.Encoder writes for the engine's
// answer in a plain struct, with an exact Content-Length. It covers an
// empty store, then a loaded one at 1x1 blocks (a series of 24 rows of
// 1,024 counts) and at 8x8 blocks.
func TestAnalyticsBodiesUnchanged(t *testing.T) {
	srv, client, grid := newCountsServer(t)
	eng, store := srv.db.Analytics(), srv.db.Store()
	check := func(path, want string) {
		t.Helper()
		resp, err := http.Get(client.baseURL() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || string(body) != want {
			t.Errorf("%s: status %d, body differs from the reference encoding: %t\n got %.120s\nwant %.120s",
				path, resp.StatusCode, string(body) != want, body, want)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Errorf("%s: Content-Length %q for a %d-byte body", path, cl, len(body))
		}
	}
	checkAll := func(block int) {
		t.Helper()
		for _, step := range []int{0, 23} {
			check(fmt.Sprintf("/v2/density?t=%d&block_rows=%d&block_cols=%d", step, block, block),
				encodePlain(t, plainDensity{T: step, Counts: eng.DensityAt(step, block, block), Gen: store.Gen(step)}))
		}
		series, err := eng.DensitySeries(0, 23, block, block)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("/v2/density/series?t0=0&t1=23&block_rows=%d&block_cols=%d", block, block),
			encodePlain(t, plainSeries{T0: 0, T1: 23, Series: series, Epoch: store.Epoch()}))
		exposure, err := eng.InfectedExposureSeries(0, 23, srv.mgr.InfectedCells())
		if err != nil {
			t.Fatal(err)
		}
		check("/v2/exposure?t0=0&t1=23",
			encodePlain(t, plainExposure{T0: 0, T1: 23, Exposure: exposure, Epoch: store.Epoch()}))
	}
	checkAll(1)
	checkAll(8)
	loadCounts(t, srv, grid)
	checkAll(1)
	checkAll(8)
}

// TestClientCountsOwnTheirMemory: the client's count answers equal the
// engine's, and fetching more leaves an earlier answer unchanged, so no
// answer shares memory with a later body.
func TestClientCountsOwnTheirMemory(t *testing.T) {
	srv, client, grid := newCountsServer(t)
	loadCounts(t, srv, grid)
	eng := srv.db.Analytics()
	first, err := client.DensitySeriesContext(t.Context(), 0, 23, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.DensitySeries(0, 23, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatal("the client's series differs from the engine's")
	}
	density, err := client.DensityContext(t.Context(), 5, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(density, eng.DensityAt(5, 8, 8)) {
		t.Fatal("the client's density differs from the engine's")
	}
	for _, q := range [][4]int{{0, 23, 1, 1}, {1, 24, 2, 2}, {10, 11, 1, 1}} {
		if _, err := client.DensitySeriesContext(t.Context(), q[0], q[1], q[2], q[3]); err != nil {
			t.Fatal(err)
		}
		if _, err := client.ExposureContext(t.Context(), q[0], q[1]); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(first, want) || !reflect.DeepEqual(density, eng.DensityAt(5, 8, 8)) {
		t.Error("a later fetch changed an earlier answer")
	}
}

// TestClientCountsBodyForms: the client reads a count answer in any JSON
// form of the same value, and refuses a body with anything but
// whitespace after its value, as it does for every other answer.
func TestClientCountsBodyForms(t *testing.T) {
	const (
		canonical = `{"t0":0,"t1":1,"series":[[1,2],[3,4]],"epoch":5}` + "\n"
		spaced    = ` { "epoch": 5, "series": [ [1, 2], [3, 4] ], "t1": 1, "t0": 0 } ` + "\n\n"
		trailing  = `{"t0":0,"t1":1,"series":[[1,2],[3,4]],"epoch":5}` + "\n{}"
	)
	bodies := []string{canonical, spaced, trailing, `{"user":1,"code":"green","window":0,"now":3}` + "\nx"}
	// The query's t0, or its user, picks the body.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		i, err := strconv.Atoi(q.Get("t0") + q.Get("user"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		_, _ = io.WriteString(w, bodies[i])
	}))
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client())
	want := [][]int{{1, 2}, {3, 4}}
	for i := range bodies[:2] {
		got, err := client.DensitySeriesContext(t.Context(), i, 1, 1, 1)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("body %q: series %v, error %v; want %v", bodies[i], got, err, want)
		}
	}
	if got, err := client.DensitySeriesContext(t.Context(), 2, 2, 1, 1); err == nil || !strings.Contains(err.Error(), "decoding response") {
		t.Errorf("series body with trailing bytes: %v, error %v; want a decoding error", got, err)
	}
	if code, err := client.HealthCodeContext(t.Context(), 3, 0, -1); err == nil || !strings.Contains(err.Error(), "decoding response") {
		t.Errorf("health-code body with trailing bytes: %q, error %v; want a decoding error", code, err)
	}
}
