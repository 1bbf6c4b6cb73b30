package experiments

import (
	"context"
	"net/http/httptest"
	"time"

	"github.com/pglp/panda/internal/dp"
	"github.com/pglp/panda/internal/mechanism"
	"github.com/pglp/panda/internal/policy"
	"github.com/pglp/panda/internal/server"
	"github.com/pglp/panda/internal/server/storage"
	"github.com/pglp/panda/internal/server/wire"
)

// RunE7 exercises the end-to-end system pipeline of Figs. 1/3: clients
// release locations under their policies and report them over HTTP; the
// server ingests, answers density queries, performs an infection policy
// update, and certifies health codes. The table reports throughput and
// latency of each stage — the systems-level sanity check behind the demo.
func RunE7(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	grid, err := cfg.Grid()
	if err != nil {
		return nil, err
	}
	ds, err := cfg.Dataset(grid)
	if err != nil {
		return nil, err
	}
	eps := cfg.Epsilons[len(cfg.Epsilons)/2]
	base := policy.Baseline(grid)
	mgr, err := policy.NewManager(grid, base, eps)
	if err != nil {
		return nil, err
	}
	db, err := server.NewDBOn(grid, storage.NewShardedStore(1))
	if err != nil {
		return nil, err
	}
	srv, err := server.NewServerOpts(db, mgr, server.Options{})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := server.NewClient(ts.URL, ts.Client())
	ctx := context.Background()

	m, err := mechanism.New(mechanism.KindGEM, grid, base, eps)
	if err != nil {
		return nil, err
	}

	table := &Table{
		ID:      "E7",
		Title:   "System pipeline throughput/latency (HTTP loopback)",
		Columns: []string{"stage", "ops", "total_ms", "ops_per_sec"},
	}

	// Stage 1: release + report (one /v2 batch per user; the client
	// negotiates policy versions automatically).
	reports := 0
	start := time.Now()
	for ui, tr := range ds.Trajs {
		rng := dp.Derive(cfg.Seed^0xe7, uint64(ui)+1)
		var batch []wire.Release
		for t := 0; t < ds.Steps; t += 4 { // thin the stream to keep E7 fast
			z, err := m.Release(rng, tr.Cells[t])
			if err != nil {
				return nil, err
			}
			batch = append(batch, wire.Release{T: t, X: z.X, Y: z.Y})
			reports++
		}
		if _, err := client.ReportBatchContext(ctx, tr.User, batch); err != nil {
			return nil, err
		}
	}
	reportDur := time.Since(start)
	table.AddRow("release+report", reports, float64(reportDur.Milliseconds()),
		float64(reports)/reportDur.Seconds())

	// Stage 2: density queries.
	queries := 0
	start = time.Now()
	for t := 0; t < ds.Steps; t += 4 {
		if _, err := client.DensityContext(ctx, t, cfg.MonitorBlock, cfg.MonitorBlock); err != nil {
			return nil, err
		}
		queries++
	}
	qDur := time.Since(start)
	table.AddRow("density-query", queries, float64(qDur.Milliseconds()),
		float64(queries)/qDur.Seconds())

	// Stage 3: infection update + health codes.
	infected := cfg.infectedCells(ds)
	start = time.Now()
	if _, err := client.MarkInfectedContext(ctx, infected); err != nil {
		return nil, err
	}
	codes := 0
	for _, tr := range ds.Trajs {
		if _, err := client.HealthCodeContext(ctx, tr.User, cfg.Window, -1); err != nil {
			return nil, err
		}
		codes++
	}
	hcDur := time.Since(start)
	table.AddRow("healthcode", codes, float64(hcDur.Milliseconds()),
		float64(codes)/hcDur.Seconds())
	return table, nil
}
