package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/pglp/panda/internal/server/storage"
)

// The MANIFEST is the authority on a data directory's shape. It is a
// two-line text file written atomically (tmp + rename + directory
// fsync) exactly once, when the directory is first laid out:
//
//	panda-wal-manifest v2
//	stripes <N>
//
// Its job is to make mis-sharding impossible: records are routed to
// stripes by storage.ShardFor(user, N), so opening an N-stripe
// directory as if it had M stripes would replay every record into the
// right memory shard (replay routes by the record itself) but compact
// each stripe against the wrong shard's contents, silently dropping
// records from disk on the next segment deletion. Open therefore
// refuses a stripe-count mismatch with ErrStripeMismatch instead of
// guessing. A directory without a MANIFEST is laid out fresh, unless
// it holds files of a layout this build does not write (see
// checkFresh).
const (
	manifestName    = "MANIFEST"
	manifestVersion = 2
)

// ErrStripeMismatch reports that a data directory's MANIFEST pins a
// different stripe count than Options.Shards requested. Nothing has
// been touched: reopen with the MANIFEST's count (wal.Manifest reads
// it), or restripe offline (see PERSISTENCE.md).
var ErrStripeMismatch = errors.New("wal: stripe count mismatch")

// Manifest reads dir's MANIFEST and returns its stripe count. ok is
// false (with a nil error) when the directory has no MANIFEST. A
// malformed or future-versioned MANIFEST is an error, and so is the
// MANIFEST of the LSM-style kv store that earlier builds shipped.
func Manifest(dir string) (stripes int, ok bool, err error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("wal: reading manifest: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 0 && strings.HasPrefix(lines[0], "panda-lsm-manifest") {
		return 0, false, fmt.Errorf("wal: %s holds a MANIFEST of the LSM-style kv store layout (%q), which this build does not read; see PERSISTENCE.md", dir, lines[0])
	}
	if len(lines) != 2 {
		return 0, false, fmt.Errorf("wal: malformed manifest in %s", dir)
	}
	var ver int
	if _, err := fmt.Sscanf(strings.TrimSpace(lines[0]), "panda-wal-manifest v%d", &ver); err != nil {
		return 0, false, fmt.Errorf("wal: malformed manifest in %s", dir)
	}
	if ver != manifestVersion {
		return 0, false, fmt.Errorf("wal: manifest version v%d in %s not supported (this build reads v%d)", ver, dir, manifestVersion)
	}
	if _, err := fmt.Sscanf(strings.TrimSpace(lines[1]), "stripes %d", &stripes); err != nil || stripes < 1 {
		return 0, false, fmt.Errorf("wal: malformed manifest in %s", dir)
	}
	return stripes, true, nil
}

// writeManifest atomically creates dir's MANIFEST: the commit point
// of a fresh layout. A crash before the rename lands leaves no
// MANIFEST, and the next Open lays the directory out again.
func writeManifest(dir string, stripes int) error {
	body := fmt.Sprintf("panda-wal-manifest v%d\nstripes %d\n", manifestVersion, stripes)
	return storage.WriteFileAtomic(dir, manifestName, func(w io.Writer) error { _, err := io.WriteString(w, body); return err })
}

// stripeDirName formats the subdirectory of stripe i.
func stripeDirName(i int) string { return fmt.Sprintf("stripe-%03d", i) }

// checkFresh is Open's refusal path for a directory without a
// MANIFEST. It returns an error naming the first file of a layout this
// build does not write, before anything in dir is modified:
//
//   - stripe-* directories: a striped layout whose MANIFEST was lost.
//     Laying a new MANIFEST with a different count over them would
//     mis-route compaction and silently drop records from disk.
//   - a root snapshot.dat or wal-*.log: the pre-stripe single-log
//     layout.
//   - log-*.log or run-*.sst: the LSM-style kv store's layout.
//
// Other files, such as the CLUSTER pin cluster.PinOwnership writes
// before the store opens, are left alone.
func checkFresh(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir() && strings.HasPrefix(name, "stripe-"):
			return fmt.Errorf("wal: %s has stripe directories but no MANIFEST; restore the MANIFEST (two lines: %q, %q) or recover from backup — see PERSISTENCE.md",
				dir, fmt.Sprintf("panda-wal-manifest v%d", manifestVersion), "stripes <N>")
		case name == snapshotName || affixed(name, "wal-", ".log"):
			return fmt.Errorf("wal: %s holds %s of the pre-stripe single-log layout, which this build does not read; see PERSISTENCE.md", dir, name)
		case affixed(name, "log-", ".log") || affixed(name, "run-", ".sst"):
			return fmt.Errorf("wal: %s holds %s of the LSM-style kv store layout, which this build does not read; see PERSISTENCE.md", dir, name)
		}
	}
	return nil
}

// affixed reports whether name starts with prefix and ends with suffix.
func affixed(name, prefix, suffix string) bool {
	return strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix)
}
