// Command panda-server runs the PANDA surveillance server (the untrusted
// party of the paper's Fig. 1): it hands out location privacy policies,
// ingests perturbed location reports, serves the location-monitoring
// density queries, accepts infected-place announcements (triggering
// dynamic policy updates) and certifies health codes.
//
// Usage:
//
//	panda-server -addr :8080 -rows 16 -cols 16 -eps 1.0 -policy baseline
//	panda-server -policy monitoring -block 4
//	panda-server -data-dir /var/lib/panda        # durable store (WAL)
//	panda-server -data-dir /var/lib/panda -fsync # fsync every write
//	panda-server -async-ingest                   # early-ack report ingestion
//	panda-server -async-ingest -ingest-workers 8 -ingest-queue 131072
//
// With -data-dir the record store is durable: a striped append-only
// write-ahead log (one log per store shard, so durable writes
// parallelize across cores). Reports survive restarts, and on
// SIGINT/SIGTERM the server drains in-flight requests, flushes and
// closes the logs before exiting. The stripe count is pinned by the
// directory's MANIFEST; a dir left at the default -shards adopts the
// manifest's count on reopen, and an explicit mismatch fails loudly. A
// directory holding another layout's files (the pre-stripe single log,
// or the LSM-style kv store of earlier builds) is refused untouched.
// See PERSISTENCE.md for the on-disk format.
//
// With -cluster-ring and -cluster-node the server runs as one node of a
// static ring behind panda-router: its slice of the ring is pinned into
// the data directory's CLUSTER manifest (alongside the WAL's MANIFEST),
// so a node restarted under a reshaped ring fails loudly instead of
// serving users it no longer owns. See CLUSTER.md.
//
// With -async-ingest, POST /v2/reports?mode=async batches are validated,
// queued and acknowledged with 202 before they reach the store; a full
// queue answers 429 with a retry hint, and /v2/ingest/stats exposes the
// queue's depth and drain counters. One user may have at most half
// the queue pending, so a hot client cannot starve everyone else's
// acks. Graceful shutdown drains the queue (within -shutdown-grace)
// before the store closes, so every acknowledged record is applied —
// and durable when -data-dir is set.
//
// POST /v2/reports also accepts the binary record format
// (Content-Type: application/x-panda-records; see API.md) — the same
// 48-byte frames the WAL appends, decoded without JSON materialization.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"github.com/pglp/panda"
	"github.com/pglp/panda/internal/cluster"
	"github.com/pglp/panda/internal/server/storage/wal"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h: usage already printed, clean exit
		}
		fmt.Fprintf(os.Stderr, "panda-server: %v\n", err)
		os.Exit(1)
	}
}

// run builds and serves the server until ctx is cancelled (a signal in
// production), then shuts down gracefully: in-flight requests get
// shutdownGrace to finish and the store is flushed and closed before
// run returns. ready, when non-nil, is called with the bound listen
// address once the server is accepting connections (tests use it to
// learn the port behind ":0").
func run(ctx context.Context, args []string, ready func(addr string)) error {
	fs := flag.NewFlagSet("panda-server", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", ":8080", "listen address")
		rows    = fs.Int("rows", 16, "grid rows")
		cols    = fs.Int("cols", 16, "grid columns")
		cell    = fs.Float64("cell", 1.0, "cell size in plane units")
		eps     = fs.Float64("eps", 1.0, "default per-release epsilon")
		polFlg  = fs.String("policy", "baseline", "default policy: baseline|monitoring|analysis")
		block   = fs.Int("block", 4, "block side for monitoring/analysis policies")
		shards  = fs.Int("shards", runtime.GOMAXPROCS(0), "lock shards for the record store (1 = single lock)")
		dataDir = fs.String("data-dir", "", "directory for the durable store (empty = memory only)")
		fsync   = fs.Bool("fsync", false, "with -data-dir: fsync the log on every write (durability over throughput)")
		grace   = fs.Duration("shutdown-grace", 10*time.Second, "how long in-flight requests get to finish on shutdown")

		asyncIngest = fs.Bool("async-ingest", false, "enable POST /v2/reports?mode=async: early 202 acks, background drain")
		ingWorkers  = fs.Int("ingest-workers", 0, "async ingest drain workers (0 = GOMAXPROCS)")
		ingDepth    = fs.Int("ingest-queue", 0, "async ingest queue bound in records (0 = default 65536)")

		clusterRing = fs.String("cluster-ring", "", "ring config file; with -cluster-node, pins this node's ring identity")
		clusterNode = fs.String("cluster-node", "", "this node's name in the -cluster-ring file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*clusterRing == "") != (*clusterNode == "") {
		return errors.New("-cluster-ring and -cluster-node must be set together")
	}
	o := panda.Options{
		Rows: *rows, Cols: *cols, CellSize: *cell, Epsilon: *eps,
		DataDir: *dataDir, FsyncEveryWrite: *fsync,
		AsyncIngest: *asyncIngest, IngestWorkers: *ingWorkers, IngestQueueDepth: *ingDepth,
	}
	var err error
	switch *polFlg {
	case "baseline":
		o.PolicyGraph, err = panda.BaselinePolicy(o)
	case "monitoring", "analysis": // Ga and Gb are the same block partition
		o.PolicyGraph, err = panda.MonitoringPolicy(o, *block)
	default:
		return fmt.Errorf("unknown policy %q", *polFlg)
	}
	if err != nil {
		return err
	}

	// Pin cluster ownership before the store opens: a node booted under
	// a reshaped ring (or pointed at another node's data dir) must be
	// refused before the WAL touches a byte. See CLUSTER.md.
	if *clusterRing != "" {
		ring, err := cluster.LoadRing(*clusterRing)
		if err != nil {
			return err
		}
		node := ring.NodeNamed(*clusterNode)
		if node == nil {
			return fmt.Errorf("ring %s has no node named %q", *clusterRing, *clusterNode)
		}
		if *dataDir != "" {
			own, err := cluster.PinOwnership(*dataDir, ring, *clusterNode)
			if err != nil {
				return err
			}
			log.Printf("panda-server: cluster node %q owns partitions %v of %d (pinned in %s)",
				own.Node, own.Owned, own.Partitions, *dataDir)
		} else {
			log.Printf("panda-server: cluster node %q owns partitions %v of %d (memory-only, ownership not pinned)",
				node.Name, node.Partitions, ring.Partitions)
		}
	}

	if *dataDir != "" {
		// The data dir's MANIFEST pins its stripe count. When -shards
		// was left at its default (GOMAXPROCS — a value that changes
		// across machines), adopt the directory's count instead of
		// failing on a machine with a different core count; an explicit
		// -shards that disagrees still fails loudly
		// (wal.ErrStripeMismatch) rather than mis-shard the logs.
		shardsSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "shards" {
				shardsSet = true
			}
		})
		if n, ok, merr := wal.Manifest(*dataDir); merr != nil {
			return merr
		} else if ok && !shardsSet && n != *shards {
			log.Printf("panda-server: %s is laid out with %d stripes; adopting (pass -shards %d to silence, or restripe per PERSISTENCE.md)", *dataDir, n, n)
			*shards = n
		}
	}
	o.StoreShards = *shards
	sys, err := panda.NewSystem(o)
	if err != nil {
		return err
	}
	// Until serving starts, every error path must release the store.
	serving := false
	defer func() {
		if !serving {
			sys.Close(ctx) // nothing is queued yet, so a canceled ctx drops nothing
		}
	}()
	storeShards := *shards
	durability := "memory-only"
	if st, durable := sys.StoreStats(); durable {
		suffix := ""
		if st.TornTail {
			suffix = " (dropped a torn final record)"
		}
		log.Printf("panda-server: recovered %d records from %s%s", st.LiveRecords, *dataDir, suffix)
		// Report the count the store opened with: -shards 0 adopts the
		// MANIFEST's count when the store opens.
		storeShards = st.Stripes
		sync := "buffered"
		if *fsync {
			sync = "always"
		}
		durability = fmt.Sprintf("wal %s (sync=%s, %d stripes)", *dataDir, sync, storeShards)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	ingestMode := "sync-only"
	if st, ok := sys.IngestStats(); ok {
		ingestMode = fmt.Sprintf("async ingest (%d workers, queue %d records)", st.Workers, st.Capacity)
	}
	log.Printf("panda-server: %dx%d grid, policy %s (edges=%d), ε=%v, store shards=%d, %s, %s, serving /v2 on %s",
		*rows, *cols, *polFlg, o.PolicyGraph.NumEdges(), *eps, storeShards, durability, ingestMode, ln.Addr())
	serving = true
	if ready != nil {
		ready(ln.Addr().String())
	}

	hs := &http.Server{Handler: sys.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	// Fail-stop on durability loss: the Store interface cannot refuse
	// writes, so once the log stops growing (disk full, I/O error) the
	// server must not keep acknowledging reports it cannot persist.
	// The monitor also surfaces background compaction failures, which
	// are not fatal (the log keeps growing) but must not stay silent —
	// the same Stats().CompactErr that /v2/healthz reports.
	storeFailed := make(chan error, 1)
	monitorDone := make(chan struct{})
	defer close(monitorDone)
	if _, durable := sys.StoreStats(); durable {
		go func() {
			ticker := time.NewTicker(time.Second)
			defer ticker.Stop()
			var loggedCompactErr string
			for {
				select {
				case <-monitorDone:
					return
				case <-ticker.C:
				}
				if err := sys.Err(); err != nil {
					storeFailed <- err
					return
				}
				if st, _ := sys.StoreStats(); st.CompactErr != nil && st.CompactErr.Error() != loggedCompactErr {
					loggedCompactErr = st.CompactErr.Error()
					log.Printf("panda-server: store compaction failing (log keeps growing): %v", st.CompactErr)
				}
			}
		}()
	}

	var failErr error
	select {
	case err := <-serveErr:
		// Serve failed outright; still drain acknowledged batches, but
		// bounded by the same grace as a signal shutdown.
		//panda:allow ctxflow — acknowledged batches must drain even if a signal races the serve failure
		drainCtx, drainCancel := context.WithTimeout(context.Background(), *grace)
		if derr := sys.Close(drainCtx); derr != nil {
			log.Printf("panda-server: ingest drain after serve error: %v", derr)
		}
		drainCancel()
		return err
	case failErr = <-storeFailed:
		log.Printf("panda-server: store append failure, shutting down to stop acknowledging non-durable writes: %v", failErr)
	case <-ctx.Done():
	}

	// Graceful shutdown, in dependency order: stop accepting, drain
	// in-flight requests (the batch reports we must not drop), drain the
	// async ingest queue (every 202-acknowledged batch reaches the
	// store), then flush and close the log. The grace period covers the
	// HTTP drain and the queue drain together.
	log.Printf("panda-server: shutting down (grace %v)", *grace)
	//panda:allow ctxflow — ctx is already canceled (or the wal failed); the drain grace must outlive it
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	shutdownErr := hs.Shutdown(shutdownCtx)
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) && shutdownErr == nil {
		shutdownErr = err
	}
	closeErr := sys.Close(shutdownCtx)
	if st, ok := sys.IngestStats(); ok {
		if errors.Is(closeErr, context.DeadlineExceeded) {
			log.Printf("panda-server: ingest drain cut short (%v): %d records dropped", closeErr, st.Dropped)
		} else {
			log.Printf("panda-server: ingest queue drained (%d records applied over the run)", st.Drained)
		}
	}
	if st, durable := sys.StoreStats(); durable {
		log.Printf("panda-server: store closed, %d records durable", st.LiveRecords)
	}
	if shutdownErr == nil {
		shutdownErr = closeErr
	}
	if failErr != nil {
		return failErr
	}
	return shutdownErr
}
