package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"github.com/pglp/panda"
	"github.com/pglp/panda/internal/cluster"
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
	fsync   bool   // fsync every append vs buffered
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
	if cfg.cluster == 0 {
		base, err = startNode(cfg, dir, &closers)
		return base, cleanup, err
	}

	// The ring gets 8x partition headroom over the node count, with
	// round-robin ownership (partition p → node p mod N).
	partitions := cfg.cluster * 8
	nodes := make([]cluster.Node, cfg.cluster)
	for i := range nodes {
		name := fmt.Sprintf("node%d", i)
		url, err := startNode(cfg, filepath.Join(dir, name), &closers)
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

// startNode boots one in-process panda-server node (a panda.System on
// the scenario city's 32x32 grid under the baseline policy at ε = 1)
// with its wal in dir when cfg.durable, and returns its httptest URL. It
// appends its closers to *closers in start order, so closing in reverse
// stops the frontend before System.Close drains the async queue and
// closes the wal.
func startNode(cfg loadConfig, dir string, closers *[]func()) (string, error) {
	o := panda.Options{Rows: 32, Cols: 32, CellSize: 1, Epsilon: 1,
		StoreShards: cfg.stripes, AsyncIngest: cfg.async}
	store := fmt.Sprintf("memory, %d shards", cfg.stripes)
	if cfg.durable {
		o.DataDir, o.FsyncEveryWrite = dir, cfg.fsync
		sync := "buffered"
		if cfg.fsync {
			sync = "always"
		}
		store = fmt.Sprintf("wal in %s, sync=%s, %d stripes", dir, sync, cfg.stripes)
	}
	sys, err := panda.NewSystem(o)
	if err != nil {
		return "", err
	}
	*closers = append(*closers, func() { sys.Close(context.Background()) })
	mode := "sync ingest"
	if cfg.async {
		mode = "async ingest"
	}
	ts := httptest.NewServer(sys.Handler())
	*closers = append(*closers, ts.Close)
	fmt.Printf("load: in-process server at %s (32x32 grid, %s, %s)\n", ts.URL, store, mode)
	return ts.URL, nil
}
