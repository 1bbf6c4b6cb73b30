package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policy"
	"github.com/pglp/panda/internal/server/storage/wal"
	"github.com/pglp/panda/internal/server/wire"
)

// healthz GETs /v2/healthz and decodes the body, which a healthy 200
// and a failing 503 share.
func healthz(t *testing.T, base string) (int, wire.HealthzResponse) {
	t.Helper()
	resp, err := http.Get(base + "/v2/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h wire.HealthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, h
}

// TestV2Healthz: the liveness probe reports store size, anchor timestep
// and epoch on a healthy memory-backed server — and is cheap enough
// that nothing here warms caches first.
func TestV2Healthz(t *testing.T) {
	_, client, grid, done := newTestServer(t)
	defer done()
	base := client.baseURL()
	if status, h := healthz(t, base); status != http.StatusOK || h.Status != "ok" || h.Records != 0 || h.StoreError != "" || h.CompactError != "" {
		t.Fatalf("empty server healthz = %d %+v", status, h)
	}
	for ti := 0; ti < 3; ti++ {
		if _, err := client.ReportBatchContext(t.Context(), 1, oneRelease(ti, grid.Center(ti))); err != nil {
			t.Fatal(err)
		}
	}
	if status, h := healthz(t, base); status != http.StatusOK || h.Status != "ok" || h.Records != 3 || h.MaxT != 2 || h.Epoch == 0 {
		t.Fatalf("healthz after ingest = %d %+v, want 200 with 3 records, max_t 2, nonzero epoch", status, h)
	}
}

// TestV2HealthzSurfacesCompactError: on a WAL-backed server a failing
// background compaction shows up in the healthz body — without flipping
// the status, because the append path (and therefore durability) is
// intact; the log just keeps growing until compaction recovers.
func TestV2HealthzSurfacesCompactError(t *testing.T) {
	dir := t.TempDir()
	ws, err := wal.Open(dir, wal.Options{Shards: 1, CompactMinGarbage: 10, CompactGarbageFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// Block stripe 0's compactor the way the wal tests do: its snapshot
	// temp path is occupied by a directory.
	if err := os.Mkdir(filepath.Join(dir, "stripe-000", "snapshot.dat.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	grid := geo.MustGrid(4, 4, 1)
	mgr, err := policy.NewManager(grid, policy.Baseline(grid), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDBOn(grid, ws)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(db, mgr)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client())

	deadline := time.Now().Add(10 * time.Second)
	for {
		// Re-reporting the same (user, t) generates pure garbage, which
		// keeps kicking the (blocked) compactor.
		if _, err := client.ReportBatchContext(t.Context(), 0, oneRelease(0, grid.Center(1))); err != nil {
			t.Fatal(err)
		}
		_, h := healthz(t, ts.URL)
		if h.CompactError != "" {
			if h.Status != "ok" || h.StoreError != "" {
				t.Fatalf("healthz = %+v: a compaction failure must not flip the liveness status", h)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("compaction failure never surfaced in healthz")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
