// Async ingestion end to end: a fleet of reporters streams perturbed
// locations through POST /v2/reports?mode=async — validated, queued,
// and acknowledged with 202 before the records reach the store — while
// a monitor goroutine polls GET /v2/ingest/stats and prints the queue
// depth, drain counters and worker lag. The run finishes by draining
// the queue (System.Close) and proving every acknowledged record landed
// in the store.
//
// Run it:
//
//	go run ./examples/async_ingest
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"sync"
	"time"

	"github.com/pglp/panda"
	"github.com/pglp/panda/internal/server"
	"github.com/pglp/panda/internal/server/wire"
)

func main() {
	const (
		users = 40
		steps = 100
		batch = 20
	)
	opts := panda.Options{
		Rows: 16, Cols: 16, CellSize: 1, Epsilon: 1,
		AsyncIngest:      true,
		IngestWorkers:    2,
		IngestQueueDepth: 4096, // small bound so backpressure is observable
	}

	sys, err := panda.NewSystem(opts)
	if err != nil {
		log.Fatal(err)
	}
	// Serve the system's HTTP API locally and talk to it like a real
	// deployment would: through the typed /v2 client.
	ts := httptest.NewServer(sys.Handler())
	defer ts.Close()
	fmt.Printf("server with async ingest at %s (2 workers, queue bound 4096 records)\n\n", ts.URL)

	world, err := panda.GenerateTraces(opts, users, steps, 7)
	if err != nil {
		log.Fatal(err)
	}

	// Monitor: poll /v2/ingest/stats while the fleet reports.
	stop := make(chan struct{})
	var monWG sync.WaitGroup
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		client := server.NewClient(ts.URL, nil)
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				st, err := client.IngestStatsContext(context.Background())
				if err != nil {
					continue
				}
				fmt.Printf("  [stats] depth %4d/%d  drained %6d  rejected(429) %4d  lag %.1fms\n",
					st.Depth, st.Capacity, st.Drained, st.Rejected, st.LagMS)
			}
		}
	}()

	// The fleet: each user perturbs its trace client-side (the server
	// must only ever see mechanism outputs) and reports it in async
	// batches. 429 backpressure is retried inside the client, honoring
	// the server's retry_after hint.
	fmt.Printf("reporting %d users x %d releases in async batches of %d...\n", users, steps, batch)
	var wg sync.WaitGroup
	start := time.Now()
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			client := server.NewClient(ts.URL, nil)
			mech, err := sys.NewUser(id, panda.GEM, uint64(id)+1)
			if err != nil {
				log.Fatal(err)
			}
			cells := world.Cells(id)
			for t0 := 0; t0 < steps; t0 += batch {
				n := min(batch, steps-t0)
				releases := make([]wire.Release, 0, n)
				for i := 0; i < n; i++ {
					// Perturb locally, then ship only the release. Report
					// would store in-process; here we go over the wire.
					rel, err := mech.Release(t0+i, cells[t0+i])
					if err != nil {
						log.Fatal(err)
					}
					releases = append(releases, wire.Release{T: rel.T, X: rel.Point.X, Y: rel.Point.Y})
				}
				ack, err := client.ReportBatchAsyncContext(context.Background(), id, releases)
				if err != nil {
					log.Fatalf("user %d: %v", id, err)
				}
				if ack.SyncFallback {
					log.Fatalf("user %d: server fell back to sync", id)
				}
			}
		}(u)
	}
	wg.Wait()
	ackElapsed := time.Since(start)
	fmt.Printf("all %d releases acknowledged in %v\n\n", users*steps, ackElapsed.Round(time.Millisecond))

	// Drain: Close stops the queue and applies everything acknowledged.
	if err := sys.Close(context.Background()); err != nil {
		log.Fatal(err)
	}
	close(stop)
	monWG.Wait()

	st, _ := sys.IngestStats()
	fmt.Printf("\nafter drain: enqueued %d, drained %d, dropped %d, rejected %d\n",
		st.Enqueued, st.Drained, st.Dropped, st.Rejected)

	stored := 0
	for u := 0; u < users; u++ {
		stored += len(sys.Records(u))
	}
	fmt.Printf("store holds %d/%d acknowledged records — async acks, nothing lost\n", stored, users*steps)
	if stored != users*steps {
		log.Fatal("records missing after drain")
	}
}
