package main

import (
	"bytes"
	"context"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/pglp/panda/internal/server"
	"github.com/pglp/panda/internal/server/storage/wal"
	"github.com/pglp/panda/internal/server/wire"
)

// launch runs the server in a goroutine and returns its base URL and a
// channel carrying run's result.
func launch(t *testing.T, ctx context.Context, args []string) (string, <-chan error) {
	t.Helper()
	addrCh := make(chan string, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, args, func(addr string) { addrCh <- addr })
	}()
	select {
	case addr := <-addrCh:
		return "http://" + addr, errCh
	case err := <-errCh:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	return "", nil
}

// TestRestartDurability is the acceptance scenario: reports ingested
// before SIGTERM are served by /v2/records and the analytics endpoints
// after a relaunch on the same -data-dir. The first instance is stopped
// by a real SIGTERM through the same signal path main wires up.
func TestRestartDurability(t *testing.T) {
	dataDir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-rows", "8", "-cols", "8", "-data-dir", dataDir,
		"-shutdown-grace", "5s"}

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	base, errCh := launch(t, sigCtx, args)

	client := server.NewClient(base, nil)
	const users, steps = 5, 12
	for u := 0; u < users; u++ {
		releases := make([]wire.Release, steps)
		for i := range releases {
			releases[i] = wire.Release{T: i, X: float64((u + i) % 8), Y: float64(u % 8)}
		}
		if _, err := client.ReportBatchContext(t.Context(), u, releases); err != nil {
			t.Fatalf("user %d: ReportBatch: %v", u, err)
		}
	}
	wantDensity, err := client.DensityContext(t.Context(), 3, 4, 4)
	if err != nil {
		t.Fatalf("Density before restart: %v", err)
	}

	// Stop instance 1 the way an operator would.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("graceful shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down after SIGTERM")
	}

	// Relaunch on the same data dir; everything must still be there.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	base2, errCh2 := launch(t, ctx2, args)
	client2 := server.NewClient(base2, nil)
	for u := 0; u < users; u++ {
		recs, err := client2.RecordsContext(t.Context(), u)
		if err != nil {
			t.Fatalf("user %d: Records after restart: %v", u, err)
		}
		if len(recs) != steps {
			t.Fatalf("user %d: %d records after restart, want %d", u, len(recs), steps)
		}
		for i, r := range recs {
			if r.T != i {
				t.Fatalf("user %d record %d: T=%d, want %d", u, i, r.T, i)
			}
		}
	}
	gotDensity, err := client2.DensityContext(t.Context(), 3, 4, 4)
	if err != nil {
		t.Fatalf("Density after restart: %v", err)
	}
	if len(gotDensity) != len(wantDensity) {
		t.Fatalf("density length %d vs %d across restart", len(gotDensity), len(wantDensity))
	}
	for i := range gotDensity {
		if gotDensity[i] != wantDensity[i] {
			t.Fatalf("density[%d]=%d after restart, want %d", i, gotDensity[i], wantDensity[i])
		}
	}

	cancel2()
	select {
	case err := <-errCh2:
		if err != nil {
			t.Fatalf("second shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("second instance did not shut down")
	}
}

// TestAsyncShutdownDrain is the async-ingest acceptance scenario: every
// record acknowledged with 202 must be in the store — and on disk, since
// -data-dir is set — after a graceful SIGTERM, because shutdown drains
// the ingest queue before closing the WAL.
func TestAsyncShutdownDrain(t *testing.T) {
	dataDir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-rows", "8", "-cols", "8",
		"-data-dir", dataDir, "-async-ingest", "-shutdown-grace", "10s"}

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	base, errCh := launch(t, sigCtx, args)

	client := server.NewClient(base, nil)
	const users, steps = 8, 50
	for u := 0; u < users; u++ {
		releases := make([]wire.Release, steps)
		for i := range releases {
			releases[i] = wire.Release{T: i, X: float64((u + i) % 8), Y: float64(u % 8)}
		}
		ack, err := client.ReportBatchAsyncContext(t.Context(), u, releases)
		if err != nil {
			t.Fatalf("user %d: ReportBatchAsync: %v", u, err)
		}
		if ack.SyncFallback || ack.Queued != steps {
			t.Fatalf("user %d: ack = %+v, want %d queued async", u, ack, steps)
		}
	}

	// SIGTERM immediately after the last 202 — the queue may still hold
	// unapplied batches; the graceful path must drain them.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("graceful shutdown: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("server did not shut down after SIGTERM")
	}

	// Relaunch on the same data dir: every acknowledged record was
	// durable at shutdown.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	base2, errCh2 := launch(t, ctx2, args)
	client2 := server.NewClient(base2, nil)
	for u := 0; u < users; u++ {
		recs, err := client2.RecordsContext(t.Context(), u)
		if err != nil {
			t.Fatalf("user %d: Records after restart: %v", u, err)
		}
		if len(recs) != steps {
			t.Fatalf("user %d: %d durable records after restart, want all %d acknowledged", u, len(recs), steps)
		}
	}
	st, err := client2.IngestStatsContext(t.Context())
	if err != nil {
		t.Fatalf("IngestStats after restart: %v", err)
	}
	if !st.Enabled {
		t.Fatal("relaunched server lost -async-ingest")
	}
	cancel2()
	select {
	case err := <-errCh2:
		if err != nil {
			t.Fatalf("second shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("second instance did not shut down")
	}
}

// TestMemoryOnlyStillWorks pins the default (no -data-dir) path through
// the refactored run, including context-cancel shutdown.
func TestMemoryOnlyStillWorks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, errCh := launch(t, ctx, []string{"-addr", "127.0.0.1:0", "-rows", "4", "-cols", "4"})
	client := server.NewClient(base, nil)
	if _, err := client.ReportBatchContext(t.Context(), 1, []wire.Release{{T: 0, X: 1, Y: 1}}); err != nil {
		t.Fatalf("ReportBatch: %v", err)
	}
	recs, err := client.RecordsContext(t.Context(), 1)
	if err != nil || len(recs) != 1 {
		t.Fatalf("Records: %v (%d records)", err, len(recs))
	}
	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestBadFlags pins run's error paths so misconfiguration fails fast.
// An undefined flag such as -backend fails at flag parsing, before any
// I/O. A flag set that run wrongly accepts serves until its context's
// deadline and then returns nil, so the row fails instead of hanging.
func TestBadFlags(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "data")
	for _, args := range [][]string{
		{"-rows", "0"},
		{"-policy", "bogus"},
		{"-policy", "monitoring", "-block", "0"},
		{"-policy", "analysis", "-block", "-2"},
		{"-addr", "not-an-address"},
		{"-backend", "kv", "-data-dir", dataDir},
		{"-addr", "127.0.0.1:0", "-eps", "NaN"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := run(ctx, args, nil)
		cancel()
		if err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
	if _, err := os.Stat(dataDir); !os.IsNotExist(err) {
		t.Errorf("a refused flag set created %s (stat err %v)", dataDir, err)
	}
}

// TestFailStopOnAppendFailure: once the wal can no longer append, run
// stops serving and returns the failure instead of acknowledging
// reports it cannot persist. After the store opens, the next segment's
// path is made a directory, so the rotation that starts a compaction
// fails and the error sticks. (Made before the launch, the directory
// would fail the open's replay instead.)
func TestFailStopOnAppendFailure(t *testing.T) {
	dataDir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, errCh := launch(t, ctx, []string{"-addr", "127.0.0.1:0", "-rows", "4", "-cols", "4",
		"-data-dir", dataDir, "-shards", "1"})
	const blocked = "wal-0000000000000002.log"
	if err := os.Mkdir(filepath.Join(dataDir, "stripe-000", blocked), 0o755); err != nil {
		t.Fatal(err)
	}
	// Ten sends of one user's 1,000 releases leave 9,000 superseded
	// records, over the default compaction trigger of 8,192.
	client := server.NewClient(base, nil, server.WithRetry(server.RetryPolicy{MaxAttempts: 1}))
	releases := make([]wire.Release, 1000)
	for i := range releases {
		releases[i] = wire.Release{T: i, X: 0.5, Y: 0.5}
	}
	for round := 0; round < 10; round++ {
		if _, err := client.ReportBatchContext(t.Context(), 1, releases); err != nil {
			break // the monitor may already have stopped the server
		}
	}
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), blocked) {
			t.Fatalf("run returned %v, want the append failure naming %s", err, blocked)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run kept serving after the wal stopped appending")
	}
}

// kvLayout is a hand-made data directory of the LSM-style kv store that
// earlier builds shipped: its MANIFEST, one sorted run and one log.
var kvLayout = map[string]string{
	"MANIFEST":                 "panda-lsm-manifest v1\nflushed 1\nrun 1 1\nok 00000000\n",
	"run-0000000000000001.sst": "PKVR run bytes",
	"log-0000000000000002.log": "PKVL log bytes",
}

// TestForeignLayoutRefused: pointing -data-dir at a directory of
// another layout fails before serving, with an error that names the
// layout and no removed flag, and leaves every file as it was.
func TestForeignLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	for name, body := range kvLayout {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-rows", "4", "-cols", "4", "-data-dir", dir}, nil)
	if err == nil {
		t.Fatal("run served a kv data dir")
	}
	if msg := err.Error(); !strings.Contains(msg, "kv store") || strings.Contains(msg, "-backend") {
		t.Errorf("refusal %q: want it to name the kv store layout and no removed flag", msg)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(kvLayout) {
		t.Errorf("refusal left %d entries, want the fixture's %d", len(entries), len(kvLayout))
	}
	for name, body := range kvLayout {
		if b, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(b) != body {
			t.Errorf("refusal changed %s: %q, %v", name, b, err)
		}
	}
}

// TestStripeCountLogged: with -shards 0, wal.Open adopts an existing
// directory's MANIFEST count, and the startup line reports the stripes
// the store opened with rather than the flag's 0.
func TestStripeCountLogged(t *testing.T) {
	dataDir := t.TempDir()
	s, err := wal.Open(dataDir, wal.Options{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer // run logs from its own goroutine, before it returns
	prev := log.Writer()
	log.SetOutput(&out)
	t.Cleanup(func() { log.SetOutput(prev) })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, errCh := launch(t, ctx, []string{"-addr", "127.0.0.1:0", "-rows", "4", "-cols", "4",
		"-shards", "0", "-data-dir", dataDir})
	cancel()
	if err := <-errCh; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if logged := out.String(); !strings.Contains(logged, "store shards=8, wal "+dataDir+" (sync=buffered, 8 stripes)") {
		t.Errorf("startup log does not report the 8 adopted stripes:\n%s", logged)
	}
}

// TestClusterOwnershipPinning: a node booted with -cluster-ring /
// -cluster-node pins its ring slice into the data dir's CLUSTER
// manifest, accepts a restart under the same ring, and refuses a
// restart under a reshaped one — before touching the WAL.
func TestClusterOwnershipPinning(t *testing.T) {
	dataDir := t.TempDir()
	ringDir := t.TempDir()
	writeRing := func(name, body string) string {
		t.Helper()
		p := filepath.Join(ringDir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	ringA := writeRing("ring.json", `{
		"partitions": 4,
		"nodes": [
			{"name": "a", "url": "http://127.0.0.1:9001", "partitions": [0, 1]},
			{"name": "b", "url": "http://127.0.0.1:9002", "partitions": [2, 3]}
		]
	}`)

	boot := func(ring string) error {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		errCh := make(chan error, 1)
		readyCh := make(chan struct{}, 1)
		go func() {
			errCh <- run(ctx, []string{"-addr", "127.0.0.1:0", "-rows", "4", "-cols", "4",
				"-data-dir", dataDir, "-cluster-ring", ring, "-cluster-node", "a",
				"-shutdown-grace", "5s"},
				func(string) { readyCh <- struct{}{} })
		}()
		select {
		case <-readyCh:
			cancel()
			return <-errCh
		case err := <-errCh:
			return err
		case <-time.After(15 * time.Second):
			t.Fatal("server neither became ready nor failed")
			return nil
		}
	}

	if err := boot(ringA); err != nil {
		t.Fatalf("first boot: %v", err)
	}
	manifest, err := os.ReadFile(filepath.Join(dataDir, "CLUSTER"))
	if err != nil {
		t.Fatalf("ownership manifest not written: %v", err)
	}
	want := "panda-cluster-manifest v1\nnode a\npartitions 4\nowned 0,1\n"
	if string(manifest) != want {
		t.Fatalf("manifest = %q, want %q", manifest, want)
	}
	// Same ring again: clean boot.
	if err := boot(ringA); err != nil {
		t.Fatalf("reboot under the same ring: %v", err)
	}
	// Reshaped ring: refused, naming the mismatch.
	ringB := writeRing("ring2.json", `{
		"partitions": 4,
		"nodes": [
			{"name": "a", "url": "http://127.0.0.1:9001", "partitions": [0]},
			{"name": "b", "url": "http://127.0.0.1:9002", "partitions": [1, 2, 3]}
		]
	}`)
	err = boot(ringB)
	if err == nil || !strings.Contains(err.Error(), "ownership mismatch") {
		t.Fatalf("boot under reshaped ring: err = %v, want ownership mismatch", err)
	}
	// Mismatched cluster flags alone are refused too.
	if err := run(context.Background(), []string{"-cluster-ring", ringA}, nil); err == nil {
		t.Error("-cluster-ring without -cluster-node accepted")
	}
}
