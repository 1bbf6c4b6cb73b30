package wal

// Durability-cost benchmarks: what does the WAL charge per Put on top
// of the in-memory store, in buffered and fsync-per-write modes? Run
// alongside the storage benchmarks in CI:
//
//	go test -bench=. ./internal/server/storage/...
//
// Representative numbers (tmpfs-backed CI runners will flatter fsync;
// see API.md for a local-disk run): buffered appends cost low single-
// digit microseconds over a one-shard in-memory store, fsync-per-write
// costs whatever the device's flush latency is — typically 100x-1000x,
// which is why batch ingestion (one fsync per batch) is the intended
// durable write path.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/pglp/panda/internal/server/storage"
)

func benchInsert(b *testing.B, s storage.Store) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Insert(rec(i%1000, i/1000, i%64))
	}
}

func benchInsertBatch(b *testing.B, s storage.Store, batch int) {
	b.Helper()
	recs := make([]storage.Record, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range recs {
			recs[j] = rec(j%1000, i, (i+j)%64)
		}
		s.InsertBatch(recs)
		b.SetBytes(int64(batch * frameSize))
	}
}

func BenchmarkInsertOneShard(b *testing.B) { benchInsert(b, storage.NewShardedStore(1)) }
func BenchmarkInsertSharded(b *testing.B)  { benchInsert(b, storage.NewShardedStore(16)) }

func BenchmarkInsertWALBuffered(b *testing.B) {
	s := mustOpenB(b, Options{CompactMinGarbage: -1})
	defer s.Close()
	benchInsert(b, s)
}

func BenchmarkInsertWALFsync(b *testing.B) {
	s := mustOpenB(b, Options{Sync: SyncAlways, CompactMinGarbage: -1})
	defer s.Close()
	benchInsert(b, s)
}

func BenchmarkInsertBatch100OneShard(b *testing.B) {
	benchInsertBatch(b, storage.NewShardedStore(1), 100)
}

func BenchmarkInsertBatch100WALBuffered(b *testing.B) {
	s := mustOpenB(b, Options{CompactMinGarbage: -1})
	defer s.Close()
	benchInsertBatch(b, s, 100)
}

func BenchmarkInsertBatch100WALFsync(b *testing.B) {
	s := mustOpenB(b, Options{Sync: SyncAlways, CompactMinGarbage: -1})
	defer s.Close()
	benchInsertBatch(b, s, 100)
}

// Stripe-scaling benchmarks: concurrent durable batch inserts, each
// goroutine confined to one stripe (the shape a shard-partitioned
// drain worker or a per-user client fleet produces), at 1/4/8
// stripes. This is the headline number of the striped WAL — fsync
// batch throughput growing with stripes because each stripe fsyncs on
// its own mutex, with group commit absorbing same-stripe contention.
// PERSISTENCE.md keeps a measured table; regenerate it with
// `go test -run=NONE -bench=BenchmarkStripedBatch100 ./internal/server/storage/wal`.
func benchStripedBatch(b *testing.B, stripes int, sync Sync) {
	b.Helper()
	s := mustOpenB(b, Options{Shards: stripes, Sync: sync, CompactMinGarbage: -1})
	defer s.Close()
	const batch = 100
	var gid atomic.Int64
	// Ensure at least 8 writer goroutines so every stripe sees
	// contention even on small machines: fsyncs overlap in the kernel
	// on one P (a goroutine blocked in fsync releases it). RunParallel
	// spawns parallelism*GOMAXPROCS goroutines, so machines with more
	// cores run more writers — compare trend lines per machine, not
	// across machines.
	if p := runtime.GOMAXPROCS(0); p < 8 {
		b.SetParallelism((8 + p - 1) / p)
	}
	b.ReportAllocs()
	b.SetBytes(int64(batch * frameSize))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := int(gid.Add(1) - 1)
		// Every user of goroutine g routes to stripe g%stripes, and no
		// two goroutines share a user: distinct (g, j) give distinct
		// base+stripes*(g*batch+j).
		base := g % stripes
		recs := make([]storage.Record, batch)
		t := 0
		for pb.Next() {
			for j := range recs {
				recs[j] = rec(base+stripes*(g*batch+j), t, (t+j)%64)
			}
			s.InsertBatch(recs)
			t++
		}
	})
}

func BenchmarkStripedBatch100Fsync(b *testing.B) {
	for _, n := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("stripes=%d", n), func(b *testing.B) {
			benchStripedBatch(b, n, SyncAlways)
		})
	}
}

func BenchmarkStripedBatch100Buffered(b *testing.B) {
	for _, n := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("stripes=%d", n), func(b *testing.B) {
			benchStripedBatch(b, n, SyncBuffered)
		})
	}
}

// BenchmarkReplay measures recovery speed: how fast Open rebuilds
// memory from a 100k-record log.
func BenchmarkReplay100k(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{CompactMinGarbage: -1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100_000; i++ {
		s.Insert(rec(i%1000, i/1000, i%64))
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		back, err := Open(dir, Options{CompactMinGarbage: -1})
		if err != nil {
			b.Fatal(err)
		}
		if back.Len() != 100_000 {
			b.Fatalf("replayed %d records", back.Len())
		}
		if err := back.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func mustOpenB(b *testing.B, opts Options) *Store {
	b.Helper()
	s, err := Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	return s
}
