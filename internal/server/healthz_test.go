package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policy"
	"github.com/pglp/panda/internal/server/storage/wal"
)

// TestV2Healthz: the liveness probe reports store size, anchor timestep
// and epoch on a healthy memory-backed server — and is cheap enough
// that nothing here warms caches first.
func TestV2Healthz(t *testing.T) {
	_, client, grid, done := newTestServer(t)
	defer done()
	h, err := client.HealthzContext(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Records != 0 || h.StoreError != "" || h.CompactError != "" {
		t.Fatalf("empty server healthz = %+v", h)
	}
	for ti := 0; ti < 3; ti++ {
		if err := client.ReportContext(t.Context(), 1, ti, grid.Center(ti)); err != nil {
			t.Fatal(err)
		}
	}
	if h, err = client.HealthzContext(t.Context()); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Records != 3 || h.MaxT != 2 || h.Epoch == 0 {
		t.Fatalf("healthz after ingest = %+v, want 3 records, max_t 2, nonzero epoch", h)
	}
	resp, err := http.Get(client.baseURL() + "/v2/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
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
		if err := client.ReportContext(t.Context(), 0, 0, grid.Center(1)); err != nil {
			t.Fatal(err)
		}
		h, err := client.HealthzContext(t.Context())
		if err != nil {
			t.Fatal(err)
		}
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

// TestClientHealthzDecodesFailing: the Healthz client method returns
// the decoded body — not an APIError — on a 503, because a failing
// status report is the answer, not a transport failure.
func TestClientHealthzDecodesFailing(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"status":"failing","records":7,"max_t":3,"epoch":9,"store_error":"wal: append: disk full"}`))
	}))
	defer ts.Close()
	h, err := NewClient(ts.URL, ts.Client()).HealthzContext(t.Context())
	if err != nil {
		t.Fatalf("Healthz on a failing server: %v (want the decoded body)", err)
	}
	if h.Status != "failing" || h.StoreError == "" || h.Records != 7 {
		t.Fatalf("healthz = %+v", h)
	}
}
