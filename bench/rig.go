package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policy"
	"github.com/pglp/panda/internal/server"
	"github.com/pglp/panda/internal/server/storage"
	"github.com/pglp/panda/internal/server/storage/wal"
)

// Server shape shared by every workload: the scenario city's 32x32 grid,
// the baseline G1 policy at ε = 1, and 8 store shards (wal stripes).
const (
	storeShards = 8
	epsilon     = 1.0
)

// rig is one running server and the HTTP client that drives it.
type rig struct {
	grid   *geo.Grid
	mgr    *policy.Manager
	db     *server.DB
	srv    *server.Server
	wal    *wal.Store // nil on the in-memory workloads
	walDir string

	hs     *http.Server
	served chan error
	tr     *http.Transport
	client *server.Client
}

type rigOptions struct {
	durable bool // striped wal with fsync on every write, in a fresh temp dir
	async   bool // early-acknowledgement ingest queue
}

// startRig builds the server the way panda-server does and serves it
// on a loopback port.
func startRig(grid *geo.Grid, o rigOptions, tr *tracer, wrap func(storage.Store) storage.Store) (_ *rig, err error) {
	r := &rig{grid: grid}
	defer func() {
		if err != nil {
			err = errors.Join(err, r.close())
		}
	}()
	if r.mgr, err = policy.NewManager(grid, policy.Baseline(grid), epsilon); err != nil {
		return r, err
	}
	var store storage.Store
	if o.durable {
		if r.walDir, err = os.MkdirTemp("", "panda-bench-wal-*"); err != nil {
			return r, err
		}
		if r.wal, err = wal.Open(r.walDir, wal.Options{Shards: storeShards, Sync: wal.SyncAlways}); err != nil {
			return r, err
		}
		store = r.wal
	} else {
		store = storage.NewShardedStore(storeShards)
	}
	if wrap != nil {
		store = wrap(store)
	}
	if tr != nil {
		store = tr.store(store)
	}
	if r.db, err = server.NewDBOn(grid, store); err != nil {
		return r, err
	}
	if r.srv, err = server.NewServerOpts(r.db, r.mgr, server.Options{AsyncIngest: o.async}); err != nil {
		return r, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return r, err
	}
	var h http.Handler = r.srv.Handler()
	if tr != nil {
		h = tr.middleware(h)
	}
	r.hs = &http.Server{Handler: h}
	r.served = make(chan error, 1)
	go func() { r.served <- r.hs.Serve(ln) }()

	n := workers()
	r.tr = &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}
	var rt http.RoundTripper = r.tr
	if tr != nil {
		rt = tr.transport(rt)
	}
	r.client = server.NewClient("http://"+ln.Addr().String(), &http.Client{Transport: rt, Timeout: time.Minute})
	return r, nil
}

// stopServing shuts the HTTP server down and drains the ingest queue,
// leaving the store open.
func (r *rig) stopServing() error {
	if r.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	r.tr.CloseIdleConnections()
	err := r.hs.Shutdown(ctx)
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	r.hs = nil
	return errors.Join(err, r.srv.DrainIngest(ctx))
}

// close stops the server, closes the store and removes its directory.
func (r *rig) close() error {
	err := r.stopServing()
	if r.wal != nil {
		err = errors.Join(err, r.wal.Close())
		r.wal = nil
	}
	if r.walDir != "" {
		err = errors.Join(err, os.RemoveAll(r.walDir))
		r.walDir = ""
	}
	return err
}

// awaitDrain waits until the ingest queue has applied every
// acknowledged batch, then syncs the wal.
func (r *rig) awaitDrain() error {
	q := r.srv.Ingest()
	if q == nil {
		return nil
	}
	deadline := time.Now().Add(time.Minute)
	for q.Stats().Depth > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("ingest queue still holds %d records after a minute", q.Stats().Depth)
		}
		time.Sleep(200 * time.Microsecond)
	}
	if r.wal != nil {
		return r.wal.Sync()
	}
	return nil
}
