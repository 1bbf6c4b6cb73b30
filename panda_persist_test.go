package panda

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSystemDataDirRestart: a System built with Options.DataDir writes
// every release through the durable store, and a new System on the same
// directory serves the same records and analytics — the facade-level
// durability contract, for every sync policy.
func TestSystemDataDirRestart(t *testing.T) {
	for _, fsync := range []bool{false, true} {
		t.Run(fmt.Sprintf("fsync=%v", fsync), func(t *testing.T) {
			testSystemDataDirRestart(t, fsync)
		})
	}
}

func testSystemDataDirRestart(t *testing.T, fsync bool) {
	{
		dir := t.TempDir()
		opts := Options{Rows: 8, Cols: 8, CellSize: 1, Epsilon: 2,
			DataDir: dir, FsyncEveryWrite: fsync, StoreShards: 4}
		sys, err := NewSystem(opts)
		if err != nil {
			t.Fatal(err)
		}
		alice, err := sys.NewUser(1, GEM, 7)
		if err != nil {
			t.Fatal(err)
		}
		cells := []int{3, 4, 5, 13, 14, 22, 30, 31}
		if _, err := alice.ReportBatch(0, cells); err != nil {
			t.Fatal(err)
		}
		want := sys.Records(1)
		if len(want) != len(cells) {
			t.Fatalf("stored %d records, want %d", len(want), len(cells))
		}
		wantDensity := sys.DensityAt(2, 4, 4)
		if err := sys.Close(context.Background()); err != nil {
			t.Fatalf("Close: %v", err)
		}

		back, err := NewSystem(opts)
		if err != nil {
			t.Fatalf("fsync=%v: reopening system: %v", fsync, err)
		}
		got := back.Records(1)
		if len(got) != len(want) {
			t.Fatalf("fsync=%v: %d records after restart, want %d", fsync, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("fsync=%v: record %d = %+v after restart, want %+v", fsync, i, got[i], want[i])
			}
		}
		gotDensity := back.DensityAt(2, 4, 4)
		for i := range wantDensity {
			if gotDensity[i] != wantDensity[i] {
				t.Fatalf("fsync=%v: density[%d] = %d after restart, want %d", fsync, i, gotDensity[i], wantDensity[i])
			}
		}
		if err := back.Close(context.Background()); err != nil {
			t.Fatal(err)
		}

		// StoreShards left at zero adopts the directory's pinned
		// stripe count instead of mis-matching it.
		opts.StoreShards = 0
		adopted, err := NewSystem(opts)
		if err != nil {
			t.Fatalf("fsync=%v: reopening with StoreShards=0: %v", fsync, err)
		}
		if got := adopted.Records(1); len(got) != len(want) {
			t.Fatalf("fsync=%v: %d records via adopted reopen, want %d", fsync, len(got), len(want))
		}
		if err := adopted.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// kvLayout is a hand-made data directory of the LSM-style kv store that
// earlier builds shipped: its MANIFEST, one sorted run and one log.
var kvLayout = map[string]string{
	"MANIFEST":                 "panda-lsm-manifest v1\nflushed 1\nrun 1 1\nok 00000000\n",
	"run-0000000000000001.sst": "PKVR run bytes",
	"log-0000000000000002.log": "PKVL log bytes",
}

// TestSystemForeignLayoutRefused: NewSystem on a data directory of
// another layout fails, names the layout and no removed option, and
// leaves every file as it was.
func TestSystemForeignLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	for name, body := range kvLayout {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := NewSystem(Options{Rows: 8, Cols: 8, CellSize: 1, Epsilon: 2, DataDir: dir})
	if err == nil {
		sys.Close(context.Background())
		t.Fatal("NewSystem opened a kv data dir")
	}
	if msg := err.Error(); !strings.Contains(msg, "kv store") || strings.Contains(strings.ToLower(msg), "backend") {
		t.Errorf("refusal %q: want it to name the kv store layout and no removed option", msg)
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

// TestSystemCloseWithoutDataDir: Close on a memory-only system is a
// harmless no-op.
func TestSystemCloseWithoutDataDir(t *testing.T) {
	sys, err := NewSystem(Options{Rows: 4, Cols: 4, CellSize: 1, Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}
