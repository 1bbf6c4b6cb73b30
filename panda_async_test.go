package panda

import (
	"context"
	"net/http/httptest"
	"testing"

	"github.com/pglp/panda/internal/server"
	"github.com/pglp/panda/internal/server/wire"
)

// TestAsyncIngestFacade drives async ingestion through the public
// facade: Options.AsyncIngest enables the 202 path on the handler,
// IngestStats observes the queue, and Close drains it so every
// acknowledged record is queryable afterwards — durable, since the
// system is WAL-backed.
func TestAsyncIngestFacade(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Rows: 8, Cols: 8, CellSize: 1, Epsilon: 1,
		DataDir: dir, AsyncIngest: true, IngestWorkers: 2,
	}
	sys, err := NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sys.IngestStats(); !ok {
		t.Fatal("IngestStats reports no queue on an AsyncIngest system")
	}

	ts := httptest.NewServer(sys.Handler())
	client := server.NewClient(ts.URL, ts.Client())
	const users, steps = 5, 20
	for u := 0; u < users; u++ {
		releases := make([]wire.Release, steps)
		for i := range releases {
			releases[i] = wire.Release{T: i, X: float64(u % 8), Y: float64(i % 8)}
		}
		ack, err := client.ReportBatchAsyncContext(t.Context(), u, releases)
		if err != nil {
			t.Fatalf("user %d: %v", u, err)
		}
		if ack.SyncFallback {
			t.Fatalf("user %d: fell back to sync on an async system", u)
		}
	}
	ts.Close()

	// Close drains the queue, then flushes and closes the WAL.
	if err := sys.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st, _ := sys.IngestStats()
	if st.Depth != 0 || st.Drained != users*steps || st.Dropped != 0 {
		t.Fatalf("queue stats after Close = %+v, want everything drained", st)
	}

	// Reopen the directory: every acknowledged record survived.
	sys2, err := NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close(context.Background())
	for u := 0; u < users; u++ {
		if got := len(sys2.Records(u)); got != steps {
			t.Fatalf("user %d: %d durable records after reopen, want %d", u, got, steps)
		}
	}
}

// TestMemoryOnlyAsyncClose pins Close on a memory-only async system:
// no store to close, but the drain must still run.
func TestMemoryOnlyAsyncClose(t *testing.T) {
	sys, err := NewSystem(Options{Rows: 4, Cols: 4, CellSize: 1, Epsilon: 1, AsyncIngest: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, ok := sys.IngestStats(); !ok {
		t.Fatal("IngestStats lost the queue after Close")
	}
}

// TestIngestStatsDisabled pins the no-async default.
func TestIngestStatsDisabled(t *testing.T) {
	sys, err := NewSystem(Options{Rows: 4, Cols: 4, CellSize: 1, Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close(context.Background())
	if _, ok := sys.IngestStats(); ok {
		t.Fatal("IngestStats reports a queue without AsyncIngest")
	}
}
