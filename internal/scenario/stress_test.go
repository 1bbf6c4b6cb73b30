package scenario

import (
	"context"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"github.com/pglp/panda/internal/server"
	"github.com/pglp/panda/internal/server/analytics"
)

// TestScenarioConcurrentWithAnalytics is the go test -race target for
// the scenario path, extending the PR 2 stress suite one layer up: a
// full scenario run (concurrent generator producers through the async
// ingest queue of a sharded server) races analytics readers hammering
// the HTTP query surface the whole time. When everything quiesces,
// every cached aggregate must equal an uncached recompute — a fresh
// engine over the same store — at every epoch.
func TestScenarioConcurrentWithAnalytics(t *testing.T) {
	const (
		users   = 40
		steps   = 48
		readers = 4
	)
	gen, _ := Lookup("commuter")
	plan, err := gen.Plan(Config{Users: users, Steps: steps, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	base, db := startTestServer(t, true)
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}

	// Readers race the producers until the run completes.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			c := server.NewClient(base, hc)
			ctx := context.Background()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ti := (seed + i) % steps
				switch i % 4 {
				case 0:
					if _, err := c.DensityContext(ctx, ti, 4, 4); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := c.ExposureContext(ctx, 0, ti); err != nil {
						t.Error(err)
						return
					}
				case 2:
					if _, err := c.CensusContext(ctx, 10, ti); err != nil {
						t.Error(err)
						return
					}
				default:
					if _, err := c.AnalyticsStatsContext(ctx); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(r)
	}

	rep, err := Run(context.Background(), plan, RunConfig{
		BaseURL: base, HTTP: hc, Async: true, Queries: 30, Sample: 4,
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Score.Policy.Violations != 0 {
		t.Errorf("%d policy violations", rep.Score.Policy.Violations)
	}

	// Quiesced: cached results must match an uncached recompute at
	// every epoch. (Run already drained the queue; the readers above
	// may have populated cache entries mid-ingest, which the epoch
	// tokens must have invalidated.)
	infected := plan.InfectedCells()
	cached := db.Analytics()
	fresh := analytics.New(plan.Grid, db.Store())
	for ti := 0; ti < steps; ti++ {
		if got, want := cached.DensityAt(ti, 4, 4), fresh.DensityAt(ti, 4, 4); !reflect.DeepEqual(got, want) {
			t.Fatalf("density at t=%d: cached %v, recomputed %v", ti, got, want)
		}
		if got, want := cached.ExposureAt(ti, infected), fresh.ExposureAt(ti, infected); got != want {
			t.Fatalf("exposure at t=%d: cached %d, recomputed %d", ti, got, want)
		}
	}
	if got, want := cached.CodeCensus(infected, 10, steps-1), fresh.CodeCensus(infected, 10, steps-1); !reflect.DeepEqual(got, want) {
		t.Fatalf("census: cached %v, recomputed %v", got, want)
	}
}
