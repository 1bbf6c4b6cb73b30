package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policy"
	"github.com/pglp/panda/internal/server"
	"github.com/pglp/panda/internal/server/storage"
	"github.com/pglp/panda/internal/server/wire"
)

// launch runs the router in a goroutine and returns its base URL and a
// channel carrying run's result.
func launch(t *testing.T, ctx context.Context, args []string) (string, <-chan error) {
	t.Helper()
	addrCh := make(chan string, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, args, func(addr string) { addrCh <- addr })
	}()
	select {
	case addr := <-addrCh:
		return "http://" + addr, errCh
	case err := <-errCh:
		t.Fatalf("router exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("router never became ready")
	}
	return "", nil
}

// startNode brings up one in-process panda-server node.
func startNode(t *testing.T) string {
	t.Helper()
	grid := geo.MustGrid(8, 8, 1)
	mgr, err := policy.NewManager(grid, policy.Baseline(grid), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	db, err := server.NewDBOn(grid, storage.NewShardedStore(2))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewServerOpts(db, mgr, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestRouterServesRing: the binary loads a ring file, proxies reports
// and analytics over its nodes, reports fleet health, and shuts down
// cleanly on context cancellation.
func TestRouterServesRing(t *testing.T) {
	nodeA, nodeB := startNode(t), startNode(t)
	ringPath := filepath.Join(t.TempDir(), "ring.json")
	ring := fmt.Sprintf(`{
		"partitions": 4,
		"nodes": [
			{"name": "a", "url": %q, "partitions": [0, 2]},
			{"name": "b", "url": %q, "partitions": [1, 3]}
		]
	}`, nodeA, nodeB)
	if err := os.WriteFile(ringPath, []byte(ring), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, errCh := launch(t, ctx, []string{"-addr", "127.0.0.1:0", "-ring", ringPath, "-probe-interval", "200ms"})

	client := server.NewClient(base, nil)
	for u := 0; u < 4; u++ {
		if _, err := client.ReportBatchContext(t.Context(), u, []wire.Release{{T: 0, X: float64(u), Y: 1}}); err != nil {
			t.Fatalf("user %d through the router binary: %v", u, err)
		}
	}
	counts, err := client.DensityContext(t.Context(), 0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 4 {
		t.Errorf("merged density totals %d releases, want 4 (counts %v)", total, counts)
	}
	resp, err := http.Get(base + "/v2/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var ch wire.ClusterHealthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&ch); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ch.Status != "ok" || len(ch.Nodes) != 2 {
		t.Errorf("cluster healthz: status %d body %+v", resp.StatusCode, ch)
	}

	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("graceful shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("router did not shut down")
	}
}

// TestRouterFlagValidation: a missing or malformed ring is refused
// before the router binds a port.
func TestRouterFlagValidation(t *testing.T) {
	if err := run(context.Background(), []string{"-addr", "127.0.0.1:0"}, nil); err == nil || !strings.Contains(err.Error(), "-ring is required") {
		t.Errorf("no -ring: err = %v", err)
	}
	bad := filepath.Join(t.TempDir(), "ring.json")
	if err := os.WriteFile(bad, []byte(`{"partitions":2,"nodes":[{"name":"a","url":"http://h","partitions":[0]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-ring", bad}, nil); err == nil || !strings.Contains(err.Error(), "unowned") {
		t.Errorf("unowned partition: err = %v", err)
	}
}
