package wal

// Crash-recovery tests specific to the striped layout: stripe/shard
// placement agreement, MANIFEST enforcement, refusal of foreign
// layouts, partial cross-stripe batches, and the rotation/iterator
// interplay that full scans depend on.

import (
	"errors"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/pglp/panda/internal/server/storage"
)

// TestStripePlacementMatchesShards pins the routing agreement the whole
// design rests on: stripe i's log files contain exactly the records of
// users with storage.ShardFor(user, N) == i — the same users whose
// memory lives in shard i — so a stripe snapshot taken from shard i can
// never drop someone else's records.
func TestStripePlacementMatchesShards(t *testing.T) {
	const stripes = 4
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Shards: stripes, CompactMinGarbage: -1})
	for u := 0; u < 20; u++ {
		for ti := 0; ti < 3; ti++ {
			s.Insert(rec(u, ti, u+ti))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < stripes; i++ {
		_, err := replayFile(stripePath(dir, i, segmentName(1)), func(r storage.Record) {
			if got := storage.ShardFor(r.User, stripes); got != i {
				t.Fatalf("stripe %d holds user %d, who routes to stripe %d", i, r.User, got)
			}
		})
		if err != nil {
			t.Fatalf("stripe %d: %v", i, err)
		}
	}
}

// TestStripeMismatchRejected: reopening a directory with a different
// Shards value must fail with ErrStripeMismatch and leave the data
// untouched — mis-sharded compaction would otherwise drop records from
// disk (see manifest.go).
func TestStripeMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Shards: 4, CompactMinGarbage: -1})
	for u := 0; u < 10; u++ {
		s.Insert(rec(u, 0, u))
	}
	want := collect(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, Options{Shards: 8, CompactMinGarbage: -1}); !errors.Is(err, ErrStripeMismatch) {
		t.Fatalf("Open with wrong Shards: err=%v, want ErrStripeMismatch", err)
	}
	if _, err := Open(dir, Options{Shards: 1, CompactMinGarbage: -1}); !errors.Is(err, ErrStripeMismatch) {
		t.Fatalf("Open with explicit Shards=1: err=%v, want ErrStripeMismatch", err)
	}

	// Shards: 0 is "no opinion" — it adopts the MANIFEST's count
	// instead of failing, so embedders that never set the knob reopen
	// any directory cleanly.
	adopted := mustOpen(t, dir, noAutoCompact)
	if st := adopted.Stats(); st.Stripes != 4 {
		t.Fatalf("Shards=0 adopted %d stripes, want 4", st.Stripes)
	}
	if err := adopted.Close(); err != nil {
		t.Fatal(err)
	}

	// The refusal must not have modified anything.
	back := mustOpen(t, dir, Options{Shards: 4, CompactMinGarbage: -1})
	defer back.Close()
	got := collect(back)
	if len(got) != len(want) {
		t.Fatalf("recovered %d records after mismatch rejections, want %d", len(got), len(want))
	}
	for k, r := range want {
		if got[k] != r {
			t.Fatalf("key %v: recovered %+v, want %+v", k, got[k], r)
		}
	}
}

// TestManifestMalformedRejected: a damaged or future-versioned MANIFEST
// is an error, never a guess.
func TestManifestMalformedRejected(t *testing.T) {
	for _, body := range []string{
		"",
		"panda-wal-manifest v2\n",
		"panda-wal-manifest v3\nstripes 4\n",
		"panda-wal-manifest v2\nstripes 0\n",
		"panda-wal-manifest v2\nstripes x\n",
		"something else\nstripes 4\n",
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, noAutoCompact); err == nil {
			t.Fatalf("Open accepted manifest %q", body)
		}
	}
}

// TestMissingManifestRejected: Open lays a fresh layout only into a
// directory that holds no other layout's files. Each fixture is
// hand-made in the shape of a layout this build does not write; Open
// must refuse it, name what it found, and leave every byte in place.
// Laying a MANIFEST over lost-MANIFEST stripes could mis-route
// compaction and drop records from disk; over the pre-stripe or kv
// files it would bury their records under an empty store.
func TestMissingManifestRejected(t *testing.T) {
	seg := string(appendFrame(fileHeader(), rec(1, 0, 5))) // a one-record log file
	lostManifest := map[string]string{stripeDirName(0) + "/" + segmentName(1): seg}
	for _, tc := range []struct {
		name  string
		files map[string]string // path under the data dir → contents
		want  string            // the refusal names this; "" means Open lays out fresh
	}{
		{"stripe dir without MANIFEST", lostManifest, "stripe directories"},
		{"root snapshot", map[string]string{snapshotName: seg}, "pre-stripe"},
		{"root segment", map[string]string{"wal-0000000001.log": seg}, "pre-stripe"},
		{"kv log", map[string]string{"log-0000000000000001.log": seg}, "kv store"},
		{"kv run", map[string]string{"run-0000000000000001.sst": seg}, "kv store"},
		{"kv MANIFEST", map[string]string{manifestName: "panda-lsm-manifest v1\nflushed 0\nok 00000000\n"}, "kv store"},
		{"CLUSTER only", map[string]string{"CLUSTER": "panda-cluster-manifest v1\nnode a\npartitions 4\nowned 0,1\n"}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeFiles(t, dir, tc.files)
			before := dirContents(t, dir)
			s, err := Open(dir, Options{Shards: 2, CompactMinGarbage: -1})
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				defer s.Close()
				if n, ok, err := Manifest(dir); n != 2 || !ok || err != nil || s.Len() != 0 {
					t.Fatalf("fresh open: Manifest = (%d, %v, %v), Len = %d", n, ok, err, s.Len())
				}
				after := dirContents(t, dir)
				for name, body := range before {
					if after[name] != body {
						t.Fatalf("fresh open rewrote %s", name)
					}
				}
				return
			}
			if err == nil {
				s.Close()
				t.Fatal("Open accepted a foreign layout")
			}
			if msg := err.Error(); !strings.Contains(msg, tc.want) || strings.Contains(msg, "-backend") {
				t.Errorf("refusal %q: want it to name %q and no removed flag", msg, tc.want)
			}
			if after := dirContents(t, dir); !maps.Equal(before, after) {
				t.Fatalf("refusal modified the directory:\nbefore %q\nafter  %q", before, after)
			}
		})
	}

	// Restoring a lost MANIFEST recovers the stripes intact.
	dir := t.TempDir()
	writeFiles(t, dir, lostManifest)
	if err := writeManifest(dir, 1); err != nil {
		t.Fatal(err)
	}
	back := mustOpen(t, dir, noAutoCompact)
	defer back.Close()
	if back.Len() != 1 || back.UserRecords(1)[0].Cell != 5 {
		t.Fatalf("recovered %d records after manifest restore", back.Len())
	}
}

// writeFiles creates each path under dir (parents included) with its
// contents.
func writeFiles(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, body := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// dirContents maps every path under dir to its contents; directories
// map to "/".
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == dir {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			out[rel] = "/"
			return nil
		}
		b, err := os.ReadFile(path)
		out[rel] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestManifestReader covers the exported Manifest helper callers use to
// adopt a directory's existing stripe count before Open.
func TestManifestReader(t *testing.T) {
	dir := t.TempDir()
	if n, ok, err := Manifest(dir); n != 0 || ok || err != nil {
		t.Fatalf("Manifest on fresh dir = (%d, %v, %v)", n, ok, err)
	}
	s := mustOpen(t, dir, Options{Shards: 6, CompactMinGarbage: -1})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n, ok, err := Manifest(dir); n != 6 || !ok || err != nil {
		t.Fatalf("Manifest after Open = (%d, %v, %v), want (6, true, nil)", n, ok, err)
	}
}

// TestPartialCrossStripeBatch pins the honest crash semantics of a
// batch spanning stripes: the appends land stripe by stripe, so a crash
// between them durably keeps one stripe's half of the batch and loses
// the other's. Replay must surface exactly the intact records — no
// all-or-nothing pretense, and no refusal either (each stripe's log is
// individually well-formed).
func TestPartialCrossStripeBatch(t *testing.T) {
	const stripes = 2
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Shards: stripes, CompactMinGarbage: -1})
	// One logical batch: users 0 and 2 route to stripe 0, users 1 and 3
	// to stripe 1.
	batch := []storage.Record{rec(0, 0, 10), rec(1, 0, 11), rec(2, 0, 12), rec(3, 0, 13)}
	if added := s.InsertBatch(batch); added != 4 {
		t.Fatalf("InsertBatch added %d, want 4", added)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash between the stripe appends: stripe 1's half never reached
	// the disk. Simulate by truncating stripe 1's segment back to its
	// header.
	if err := os.Truncate(stripePath(dir, 1, segmentName(1)), headerSize); err != nil {
		t.Fatal(err)
	}

	back := mustOpen(t, dir, Options{Shards: stripes, CompactMinGarbage: -1})
	defer back.Close()
	if back.Len() != 2 {
		t.Fatalf("recovered %d records, want 2 (stripe 0's half of the batch)", back.Len())
	}
	for _, u := range []int{0, 2} {
		if got := back.UserRecords(u); len(got) != 1 || got[0].Cell != 10+u {
			t.Fatalf("user %d records after partial-batch replay: %+v", u, got)
		}
	}
	for _, u := range []int{1, 3} {
		if got := back.UserRecords(u); len(got) != 0 {
			t.Fatalf("user %d records survived a truncated stripe: %+v", u, got)
		}
	}
}

// TestSyncAlwaysConcurrentStripes exercises the group-commit fsync path
// under the race detector: concurrent single-record and cross-stripe
// batch writers in SyncAlways mode, racing a compaction loop, must all
// be durable at Close.
func TestSyncAlwaysConcurrentStripes(t *testing.T) {
	const stripes = 4
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Shards: stripes, Sync: SyncAlways, CompactMinGarbage: -1})
	const writers, perWriter = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if i%4 == 0 {
					// Cross-stripe batch: users w, w+1, w+2 span stripes.
					s.InsertBatch([]storage.Record{
						rec(w, i, 1), rec(w+writers, i, 2), rec(w+2*writers, i, 3),
					})
				} else {
					s.Insert(rec(w, i, i%64))
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var cwg sync.WaitGroup
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Compact(); err != nil {
				t.Errorf("Compact: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	cwg.Wait()
	want := collect(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	back := mustOpen(t, dir, Options{Shards: stripes, CompactMinGarbage: -1})
	defer back.Close()
	got := collect(back)
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for k, r := range want {
		if got[k] != r {
			t.Fatalf("key %v: recovered %+v, want %+v", k, got[k], r)
		}
	}
}

// TestScanAtomicityDuringRotation is the regression test for the
// compaction/scan interplay: a full Scan racing cross-stripe batch
// inserts and per-stripe segment rotations must always observe whole
// batches — never a half-applied one — and
// nothing may be lost across the concurrent compactions. The audit
// behind it: rotation holds only the stripe's own locks and never the
// memory shard locks, and the stripe snapshot reads the shard under its
// read lock after rotation, so an iterator (holding all shard read
// locks) can overlap a rotation freely; the batch-atomicity guarantee
// comes solely from the memory apply locking every involved shard
// before inserting anything.
func TestScanAtomicityDuringRotation(t *testing.T) {
	const stripes = 4
	const users = 8 // spans all stripes
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Shards: stripes, CompactMinGarbage: -1})

	var (
		nextT   atomic.Int64
		stop    = make(chan struct{})
		wg      sync.WaitGroup
		scanErr = make(chan string, 1)
	)
	// Writer: each batch is one timestep across all users; a scan that
	// sees some but not all of a timestep's records caught a torn batch.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ti := int(nextT.Add(1))
			batch := make([]storage.Record, users)
			for u := 0; u < users; u++ {
				batch[u] = rec(u, ti, ti%64)
			}
			s.InsertBatch(batch)
		}
	}()
	// Compactor: rotate all stripes as fast as possible.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Compact(); err != nil {
				select {
				case scanErr <- "Compact: " + err.Error():
				default:
				}
				return
			}
		}
	}()
	// Scanner (this goroutine): repeated full scans.
	for i := 0; i < 200; i++ {
		perT := make(map[int]int)
		s.Scan(func(r storage.Record) bool {
			perT[r.T]++
			return true
		})
		for ti, n := range perT {
			if n != users {
				close(stop)
				wg.Wait()
				t.Fatalf("torn batch: timestep %d had %d records, want %d", ti, n, users)
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-scanErr:
		t.Fatal(msg)
	default:
	}
	want := collect(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	back := mustOpen(t, dir, Options{Shards: stripes, CompactMinGarbage: -1})
	defer back.Close()
	got := collect(back)
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
}
