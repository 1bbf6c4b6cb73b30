package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"os"
	"sort"
	"strings"

	"github.com/pglp/panda/internal/server/storage"
)

// Node is one panda-server process in the ring: a stable name (the
// identity pinned into the node's CLUSTER manifest), the base URL the
// router reaches it at, and the partitions it owns.
type Node struct {
	Name string `json:"name"`
	URL  string `json:"url"`
	// Partitions lists the partition indexes (0 <= p < Ring.Partitions)
	// this node owns. Every partition of the ring must be owned by
	// exactly one node.
	Partitions []int `json:"partitions"`
}

// Ring is the static placement map of the cluster: users hash onto
// Partitions buckets via storage.ShardFor (the same routing arithmetic
// as the in-node shard and WAL-stripe placement), and each bucket is
// owned by exactly one node. The ring is immutable once loaded;
// reshaping it is an offline operation (see CLUSTER.md).
type Ring struct {
	// Partitions is the number of user-hash buckets. It is deliberately
	// independent of the node count so a future rebalancing PR can move
	// buckets between nodes without remapping every user: pick a
	// Partitions with headroom (say 64) even for a 2-node ring.
	Partitions int    `json:"partitions"`
	Nodes      []Node `json:"nodes"`

	owner []int // partition index -> Nodes index
}

// ParseRing decodes and validates a ring config (see CLUSTER.md for
// the file format). It rejects rings with unowned or doubly-owned
// partitions, duplicate node names, or unusable URLs — a malformed
// ring must never route a single request.
func ParseRing(data []byte) (*Ring, error) {
	var r Ring
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("cluster: decoding ring: %w", err)
	}
	if r.Partitions < 1 {
		return nil, fmt.Errorf("cluster: ring needs partitions >= 1, got %d", r.Partitions)
	}
	if len(r.Nodes) == 0 {
		return nil, errors.New("cluster: ring has no nodes")
	}
	r.owner = make([]int, r.Partitions)
	for i := range r.owner {
		r.owner[i] = -1
	}
	names := make(map[string]bool, len(r.Nodes))
	for i, n := range r.Nodes {
		if n.Name == "" {
			return nil, fmt.Errorf("cluster: node %d has no name", i)
		}
		if strings.ContainsAny(n.Name, " \t\r\n") {
			return nil, fmt.Errorf("cluster: node name %q contains whitespace (names key the ownership manifest)", n.Name)
		}
		if names[n.Name] {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n.Name)
		}
		names[n.Name] = true
		u, err := url.Parse(n.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: node %q has unusable url %q (want scheme://host[:port])", n.Name, n.URL)
		}
		if len(n.Partitions) == 0 {
			return nil, fmt.Errorf("cluster: node %q owns no partitions", n.Name)
		}
		for _, p := range n.Partitions {
			if p < 0 || p >= r.Partitions {
				return nil, fmt.Errorf("cluster: node %q owns partition %d, outside [0, %d)", n.Name, p, r.Partitions)
			}
			if prev := r.owner[p]; prev != -1 {
				return nil, fmt.Errorf("cluster: partition %d owned by both %q and %q", p, r.Nodes[prev].Name, n.Name)
			}
			r.owner[p] = i
		}
	}
	for p, o := range r.owner {
		if o == -1 {
			return nil, fmt.Errorf("cluster: partition %d is unowned", p)
		}
	}
	// Normalize: sorted partition lists make manifests and logs stable.
	for i := range r.Nodes {
		sort.Ints(r.Nodes[i].Partitions)
		r.Nodes[i].URL = strings.TrimRight(r.Nodes[i].URL, "/")
	}
	return &r, nil
}

// LoadRing reads and validates a ring config file.
func LoadRing(path string) (*Ring, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: reading ring: %w", err)
	}
	r, err := ParseRing(data)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return r, nil
}

// PartitionFor maps a user ID onto its ring partition — exactly
// storage.ShardFor over the ring's partition count, so cluster
// placement and in-node shard/stripe placement can never disagree
// about how a user ID hashes. Its output for fixed users is pinned by
// a golden test; changing it remaps users away from their nodes (and
// their WAL stripes) and requires an offline restripe.
func (r *Ring) PartitionFor(user int) int {
	return storage.ShardFor(user, r.Partitions)
}

// OwnerIndex returns the Nodes index owning the user's partition.
func (r *Ring) OwnerIndex(user int) int {
	return r.owner[r.PartitionFor(user)]
}

// NodeNamed returns the node with the given name, or nil.
func (r *Ring) NodeNamed(name string) *Node {
	for i := range r.Nodes {
		if r.Nodes[i].Name == name {
			return &r.Nodes[i]
		}
	}
	return nil
}
