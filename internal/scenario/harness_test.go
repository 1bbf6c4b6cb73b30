package scenario

import (
	"context"
	"net/http/httptest"
	"testing"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policy"
	"github.com/pglp/panda/internal/server"
	"github.com/pglp/panda/internal/server/storage"
)

// startTestServer boots a fresh in-process panda-server on the scenario
// grid (sharded store) and returns its base URL and DB. Cleanup drains
// the ingest queue (async mode) and shuts the frontend down.
func startTestServer(t *testing.T, async bool) (base string, db *server.DB) {
	t.Helper()
	grid := geo.MustGrid(cityRows, cityCols, 1)
	mgr, err := policy.NewManager(grid, policy.Baseline(grid), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if db, err = server.NewDBOn(grid, storage.NewShardedStore(8)); err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewServerOpts(db, mgr, server.Options{AsyncIngest: async})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		if async {
			srv.DrainIngest(context.Background())
		}
	})
	return ts.URL, db
}
