package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"github.com/pglp/panda/internal/cluster"
	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policy"
	"github.com/pglp/panda/internal/server"
	"github.com/pglp/panda/internal/server/storage/wal"
)

// loadConfig parameterizes a -load run: a named city-scale scenario
// streamed through the /v2 client against one target and scored end to
// end.
type loadConfig struct {
	scenario string // registered generator name (-lscenario)
	seed     uint64 // scenario seed (-seed)
	users    int    // simulated users
	steps    int    // timesteps, one release each, per user
	batch    int    // releases per POST /v2/reports request
	queries  int    // analytics queries in the repeat phase
	sample   int    // users the adversary replays (-lsample)
	report   string // NDJSON score report path; empty = stdout

	url string // target base URL; empty = in-process

	// Durability of the in-process target: back each node's store with
	// a wal so the run measures what durable appends cost.
	durable bool
	dir     string // wal directory; empty = a fresh temp dir
	fsync   bool   // fsync every append (wal.SyncAlways) vs buffered
	stripes int    // wal stripes / store shards per node

	// async reports with early acknowledgement (202 + background drain),
	// so the ingest percentiles are ack latency, not store latency.
	async bool
	// binary reports in the binary record format
	// (application/x-panda-records) instead of JSON.
	binary bool
	// cluster runs this many in-process nodes behind an in-process
	// cluster router and drives the run through the router; 0 = one
	// node. With durable, each node gets its own wal directory.
	cluster int
}

// startLoadTarget boots the configured target and returns its base URL:
// an external -url, one in-process node, or cfg.cluster nodes behind an
// in-process router. cleanup tears everything down in reverse start
// order; it is safe to call exactly once, error or not.
func startLoadTarget(cfg loadConfig) (base string, cleanup func(), err error) {
	if cfg.url != "" {
		fmt.Printf("load: targeting %s\n", cfg.url)
		return cfg.url, func() {}, nil
	}
	var closers []func()
	cleanup = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	defer func() {
		if err != nil {
			cleanup()
		}
	}()
	dir := cfg.dir
	if cfg.durable && dir == "" {
		if dir, err = os.MkdirTemp("", "panda-load-*"); err != nil {
			return "", cleanup, err
		}
		tmp := dir
		closers = append(closers, func() { os.RemoveAll(tmp) })
	}
	grid := geo.MustGrid(32, 32, 1)
	if cfg.cluster == 0 {
		base, err = startNode(cfg, grid, dir, &closers)
		return base, cleanup, err
	}

	// The ring gets 8x partition headroom over the node count, with
	// round-robin ownership (partition p → node p mod N).
	partitions := cfg.cluster * 8
	nodes := make([]cluster.Node, cfg.cluster)
	for i := range nodes {
		name := fmt.Sprintf("node%d", i)
		url, err := startNode(cfg, grid, filepath.Join(dir, name), &closers)
		if err != nil {
			return "", cleanup, err
		}
		var owned []int
		for p := i; p < partitions; p += cfg.cluster {
			owned = append(owned, p)
		}
		nodes[i] = cluster.Node{Name: name, URL: url, Partitions: owned}
	}
	// Round-trip the ring through its own parser so the run exercises the
	// same validation path as a ring file.
	ringJSON, err := json.Marshal(cluster.Ring{Partitions: partitions, Nodes: nodes})
	if err != nil {
		return "", cleanup, err
	}
	ring, err := cluster.ParseRing(ringJSON)
	if err != nil {
		return "", cleanup, err
	}
	rt, err := cluster.New(cluster.Config{Ring: ring, ProbeInterval: time.Second})
	if err != nil {
		return "", cleanup, err
	}
	rtCtx, rtCancel := context.WithCancel(context.Background())
	rt.Start(rtCtx)
	closers = append(closers, func() { rtCancel(); rt.Stop() })
	rts := httptest.NewServer(rt.Handler())
	closers = append(closers, rts.Close)
	fmt.Printf("load: cluster router at %s over %d nodes (%d partitions)\n", rts.URL, cfg.cluster, partitions)
	return rts.URL, cleanup, nil
}

// startNode boots one in-process panda-server on grid and returns its
// URL: a fresh policy manager, a wal in dir (cfg.durable) or an in-memory
// sharded store, and an httptest frontend. It appends its closers to
// *closers in start order, so closing in reverse drains the async queue
// before the wal closes.
func startNode(cfg loadConfig, grid *geo.Grid, dir string, closers *[]func()) (string, error) {
	mgr, err := policy.NewManager(grid, policy.Baseline(grid), 1.0)
	if err != nil {
		return "", err
	}
	store := fmt.Sprintf("memory, %d shards", cfg.stripes)
	var db *server.DB
	if cfg.durable {
		opts := wal.Options{Shards: cfg.stripes, Sync: wal.SyncBuffered}
		if cfg.fsync {
			opts.Sync = wal.SyncAlways
		}
		st, err := wal.Open(dir, opts)
		if err != nil {
			return "", err
		}
		*closers = append(*closers, func() { st.Close() })
		if db, err = server.NewDBOn(grid, st); err != nil {
			return "", err
		}
		store = fmt.Sprintf("wal in %s, sync=%s, %d stripes", dir, opts.Sync, cfg.stripes)
	} else {
		db = server.NewShardedDB(grid, cfg.stripes)
	}
	srv, err := server.NewServerOpts(db, mgr, server.Options{AsyncIngest: cfg.async})
	if err != nil {
		return "", err
	}
	mode := "sync ingest"
	if cfg.async {
		// Drain acknowledged batches before the wal closes.
		*closers = append(*closers, func() { srv.DrainIngest(context.Background()) })
		mode = "async ingest"
	}
	ts := httptest.NewServer(srv.Handler())
	*closers = append(*closers, ts.Close)
	fmt.Printf("load: in-process server at %s (32x32 grid, %s, %s)\n", ts.URL, store, mode)
	return ts.URL, nil
}
