package cluster

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"github.com/pglp/panda/internal/server/storage"
)

// The per-node ownership manifest mirrors the WAL's MANIFEST pattern
// one level up: where MANIFEST pins "how many stripes this directory
// is laid out in", CLUSTER pins "which slice of the ring this
// directory's records belong to". A node booted with -cluster-ring /
// -cluster-node writes it on first start and verifies it on every
// later one, so an operator who reshapes the ring (or points a node at
// the wrong data dir) gets a refusal naming the mismatch instead of a
// node quietly serving — and re-ingesting — users it no longer owns.
const (
	ownershipName    = "CLUSTER"
	ownershipVersion = 1
)

// ErrOwnershipMismatch reports that a data directory's CLUSTER
// manifest pins a different identity or partition set than the ring
// assigns. Nothing has been touched: fix the ring, fix the flags, or
// migrate the data offline (see CLUSTER.md).
var ErrOwnershipMismatch = errors.New("cluster: ownership mismatch")

// Ownership is the identity a node data directory is pinned to.
type Ownership struct {
	Node       string // node name in the ring
	Partitions int    // ring partition count
	Owned      []int  // partitions this node's records belong to, ascending
}

// ReadOwnership reads dir's CLUSTER manifest. ok is false (with a nil
// error) when the directory has none — a fresh directory, or one that
// has only ever run single-node. A malformed or future-versioned
// manifest is an error.
func ReadOwnership(dir string) (o Ownership, ok bool, err error) {
	b, err := os.ReadFile(filepath.Join(dir, ownershipName))
	if os.IsNotExist(err) {
		return Ownership{}, false, nil
	}
	if err != nil {
		return Ownership{}, false, fmt.Errorf("cluster: reading ownership manifest: %w", err)
	}
	malformed := fmt.Errorf("cluster: malformed ownership manifest in %s", dir)
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 4 {
		return Ownership{}, false, malformed
	}
	var ver int
	if _, err := fmt.Sscanf(strings.TrimSpace(lines[0]), "panda-cluster-manifest v%d", &ver); err != nil {
		return Ownership{}, false, malformed
	}
	if ver != ownershipVersion {
		return Ownership{}, false, fmt.Errorf("cluster: ownership manifest version v%d in %s not supported (this build reads v%d)", ver, dir, ownershipVersion)
	}
	if _, err := fmt.Sscanf(strings.TrimSpace(lines[1]), "node %s", &o.Node); err != nil {
		return Ownership{}, false, malformed
	}
	if _, err := fmt.Sscanf(strings.TrimSpace(lines[2]), "partitions %d", &o.Partitions); err != nil || o.Partitions < 1 {
		return Ownership{}, false, malformed
	}
	owned, found := strings.CutPrefix(strings.TrimSpace(lines[3]), "owned ")
	if !found {
		return Ownership{}, false, malformed
	}
	for _, tok := range strings.Split(owned, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || p < 0 || p >= o.Partitions {
			return Ownership{}, false, malformed
		}
		o.Owned = append(o.Owned, p)
	}
	return o, true, nil
}

// PinOwnership pins dir to the identity the ring assigns nodeName: a
// fresh directory gets a CLUSTER manifest written (atomically, like
// the WAL's MANIFEST); a directory that already has one must match the
// ring exactly or PinOwnership fails with ErrOwnershipMismatch. The
// directory is created if absent. It returns the pinned ownership.
func PinOwnership(dir string, ring *Ring, nodeName string) (Ownership, error) {
	node := ring.NodeNamed(nodeName)
	if node == nil {
		return Ownership{}, fmt.Errorf("cluster: ring has no node named %q", nodeName)
	}
	want := Ownership{Node: node.Name, Partitions: ring.Partitions, Owned: node.Partitions}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Ownership{}, fmt.Errorf("cluster: creating %s: %w", dir, err)
	}
	got, ok, err := ReadOwnership(dir)
	if err != nil {
		return Ownership{}, err
	}
	if !ok {
		if err := writeOwnership(dir, want); err != nil {
			return Ownership{}, err
		}
		return want, nil
	}
	if got.Node != want.Node || got.Partitions != want.Partitions || !slices.Equal(got.Owned, want.Owned) {
		return Ownership{}, fmt.Errorf(
			"%w: %s is pinned to node %q owning %v of %d partitions, but the ring assigns node %q %v of %d — reshaping a ring requires an offline migration, see CLUSTER.md",
			ErrOwnershipMismatch, dir, got.Node, got.Owned, got.Partitions, want.Node, want.Owned, want.Partitions)
	}
	return want, nil
}

// writeOwnership atomically creates dir's CLUSTER manifest with
// storage.WriteFileAtomic, so the file is either absent or complete
// regardless of where a crash lands — the same commit discipline as
// the WAL's MANIFEST.
func writeOwnership(dir string, o Ownership) error {
	owned := make([]string, len(o.Owned))
	for i, p := range o.Owned {
		owned[i] = strconv.Itoa(p)
	}
	body := fmt.Sprintf("panda-cluster-manifest v%d\nnode %s\npartitions %d\nowned %s\n",
		ownershipVersion, o.Node, o.Partitions, strings.Join(owned, ","))
	return storage.WriteFileAtomic(dir, ownershipName, func(w io.Writer) error { _, err := io.WriteString(w, body); return err })
}
