package server

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policy"
	"github.com/pglp/panda/internal/server/storage"
	"github.com/pglp/panda/internal/server/wire"
)

// benchReleases is the contact-tracing re-send scenario size: one user's
// whole history of 10k releases.
const benchReleases = 10_000

// newBenchServer serves a 32x32 grid under the G1 baseline policy over
// loopback, to a client on the server's own transport. dials counts the
// connections the server accepted. At this size a policy body is about
// 38 KB, well over the 2 KB below which net/http sets Content-Length
// itself.
func newBenchServer(tb testing.TB, shards int) (client *Client, grid *geo.Grid, dials *atomic.Int64, done func()) {
	tb.Helper()
	grid = geo.MustGrid(32, 32, 1)
	mgr, err := policy.NewManager(grid, policy.Baseline(grid), 1.0)
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := NewServerOpts(newDB(tb, grid, shards), mgr, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(srv.Handler())
	dials = new(atomic.Int64)
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			dials.Add(1)
		}
	}
	ts.Start()
	return NewClient(ts.URL, ts.Client()), grid, dials, ts.Close
}

// BenchmarkV2BatchReports ingests 10k releases as one POST /v2/reports
// batch — the whole-history re-send in one round trip.
func BenchmarkV2BatchReports(b *testing.B) {
	client, grid, _, done := newBenchServer(b, 1)
	defer done()
	releases := make([]wire.Release, benchReleases)
	for i := range releases {
		p := grid.Center(i % grid.NumCells())
		releases[i] = wire.Release{T: i, X: p.X, Y: p.Y}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.ReportBatchContext(b.Context(), 1, releases); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchReleases*b.N)/b.Elapsed().Seconds(), "releases/sec")
}

// BenchmarkPolicyFetch fetches the 32x32 G1 policy once per iteration,
// the client's half of a renegotiation wave. In held-graph the client
// already holds the graph the policy head names, so a fetch moves only
// the head. In new-graph each iteration starts a client that holds no
// graph, on the same connections, so a fetch also downloads and decodes
// the graph. dials/op near 0 means the connection is kept across
// fetches.
func BenchmarkPolicyFetch(b *testing.B) {
	for _, held := range []bool{true, false} {
		name := "new-graph"
		if held {
			name = "held-graph"
		}
		b.Run(name, func(b *testing.B) {
			client, _, dials, done := newBenchServer(b, 1)
			defer done()
			if _, err := client.PolicyContext(b.Context(), -1); err != nil {
				b.Fatal(err)
			}
			dials.Store(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := client
				if !held {
					c = NewClient(client.base, client.hc)
				}
				if _, err := c.PolicyContext(b.Context(), i); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(dials.Load())/float64(b.N), "dials/op")
		})
	}
}

// BenchmarkAnalyticsFetch fetches the dashboard's count answers from a
// node over loopback, the client's decode included: the density at one
// step and a 24-step density series, both at 2x2 blocks (256 regions),
// and a 24-step exposure series. The store holds 300 users × 24 steps,
// and every answer is cached after its first fetch, so what is timed
// is the transfer: handler, encode, HTTP and decode.
func BenchmarkAnalyticsFetch(b *testing.B) {
	client, grid, _, done := newBenchServer(b, 4)
	defer done()
	releases := make([]wire.Release, 24)
	for u := 0; u < 300; u++ {
		for i := range releases {
			p := grid.Center((u*37 + i*5) % grid.NumCells())
			releases[i] = wire.Release{T: i, X: p.X, Y: p.Y}
		}
		if _, err := client.ReportBatchBinaryContext(b.Context(), u, releases); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := client.MarkInfectedContext(b.Context(), []int{37, 42, 500}); err != nil {
		b.Fatal(err)
	}
	for _, q := range []struct {
		name  string
		fetch func(ctx context.Context) error
	}{
		{"density", func(ctx context.Context) error { _, err := client.DensityContext(ctx, 23, 2, 2); return err }},
		{"series", func(ctx context.Context) error { _, err := client.DensitySeriesContext(ctx, 0, 23, 2, 2); return err }},
		{"exposure", func(ctx context.Context) error { _, err := client.ExposureContext(ctx, 0, 23); return err }},
	} {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := q.fetch(b.Context()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOneShardStoreInsertParallel and the sharded variant measure
// raw concurrent ingestion with GOMAXPROCS writers, each writing its own
// user stream — the contention more shards remove.
func BenchmarkOneShardStoreInsertParallel(b *testing.B) {
	benchStoreParallel(b, storage.NewShardedStore(1))
}

func BenchmarkShardedStoreInsertParallel(b *testing.B) {
	benchStoreParallel(b, storage.NewShardedStore(32))
}

// --- read-path benchmarks: the seed's full-scan analytics vs the
// timestep index and the engine's epoch-versioned cache ---

const (
	benchUsers = 2000
	benchSteps = 50
)

// newAnalyticsBenchDB fills a DB with benchUsers users × benchSteps
// timesteps (one record each), the monitoring workload's shape.
func newAnalyticsBenchDB(b *testing.B) *DB {
	b.Helper()
	grid := geo.MustGrid(32, 32, 1)
	db := newDB(b, grid, 16)
	batch := make([]Record, 0, benchSteps)
	for u := 0; u < benchUsers; u++ {
		batch = batch[:0]
		for t := 0; t < benchSteps; t++ {
			batch = append(batch, Record{User: u, T: t, Cell: (u*31 + t) % grid.NumCells()})
		}
		if _, _, err := db.InsertBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// seedDensityAt recomputes density the way the seed code path did
// before the timestep index and the analytics engine existed: a scan of
// every stored record, filtering by t.
func seedDensityAt(db *DB, t, blockRows, blockCols int) []int {
	counts := make([]int, db.grid.NumRegions(blockRows, blockCols))
	db.Store().Scan(func(rec Record) bool {
		if rec.T == t {
			counts[db.grid.RegionOf(rec.Cell, blockRows, blockCols)]++
		}
		return true
	})
	return counts
}

// BenchmarkDensityAtSeedUncached is the "before": every repeated query
// rescans all users' histories.
func BenchmarkDensityAtSeedUncached(b *testing.B) {
	db := newAnalyticsBenchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seedDensityAt(db, i%benchSteps, 4, 4)
	}
}

// BenchmarkDensityAtCached is the "after": repeated queries are served
// from the engine's per-timestep cache.
func BenchmarkDensityAtCached(b *testing.B) {
	db := newAnalyticsBenchDB(b)
	db.Analytics().DensityAt(0, 4, 4) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Analytics().DensityAt(i%benchSteps, 4, 4)
	}
}

// BenchmarkDensitySeriesSeedUncached / Cached: the dashboard window
// query (every timestep, every repeat) before and after the engine.
func BenchmarkDensitySeriesSeedUncached(b *testing.B) {
	db := newAnalyticsBenchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 0; t < benchSteps; t++ {
			seedDensityAt(db, t, 4, 4)
		}
	}
}

func BenchmarkDensitySeriesCached(b *testing.B) {
	db := newAnalyticsBenchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Analytics().DensitySeries(0, benchSteps-1, 4, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreAtSeedScan vs BenchmarkStoreAtIndexed: collecting one
// timestep's records by scanning everything (the seed's At) vs the
// posting-list index.
func BenchmarkStoreAtSeedScan(b *testing.B) {
	db := newAnalyticsBenchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := i % benchSteps
		var out []Record
		db.Store().Scan(func(rec Record) bool {
			if rec.T == t {
				out = append(out, rec)
			}
			return true
		})
	}
}

func BenchmarkStoreAtIndexed(b *testing.B) {
	db := newAnalyticsBenchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Store().At(i % benchSteps)
	}
}

// BenchmarkCodeCensusCached measures the cached population census (the
// first iteration computes, the rest hit the epoch-versioned entry).
func BenchmarkCodeCensusCached(b *testing.B) {
	db := newAnalyticsBenchDB(b)
	infected := []int{1, 2, 3, 4, 5}
	db.Analytics().CodeCensus(infected, 10, benchSteps-1) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Analytics().CodeCensus(infected, 10, benchSteps-1)
	}
}

// BenchmarkCodeCensusMiss measures the census recompute: each iteration
// replaces one record at the newest step, which bumps the epoch, then
// takes a window-10 census.
func BenchmarkCodeCensusMiss(b *testing.B) {
	db := newAnalyticsBenchDB(b)
	infected := []int{1, 2, 3, 4, 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Store().Insert(Record{User: i % benchUsers, T: benchSteps - 1, Cell: i % 1024})
		db.Analytics().CodeCensus(infected, 10, benchSteps-1)
	}
}

func benchStoreParallel(b *testing.B, s storage.Store) {
	var nextUser atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		user := int(nextUser.Add(1))
		t := 0
		for pb.Next() {
			s.Insert(Record{User: user, T: t, Cell: t % 1024})
			t++
		}
	})
}
