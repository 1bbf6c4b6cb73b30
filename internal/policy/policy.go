package policy

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/pglp/panda/internal/dp"
	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policygraph"
)

// ForMonitoring returns Ga: indistinguishability inside each coarse area,
// areas mutually distinguishable (paper Fig. 4, "such a monitor only
// requires the people moving between different cities"). At a finer
// block size it is Gb, the epidemic-analysis policy.
func ForMonitoring(grid *geo.Grid, blockRows, blockCols int) *policygraph.Graph {
	return policygraph.PartitionCliques(grid, blockRows, blockCols)
}

// ForContactTracing returns Gc: the base policy with all locations in
// `infected` made disclosable (isolated), so that visits to infected
// places can be revealed exactly while everything else keeps
// indistinguishability.
func ForContactTracing(base *policygraph.Graph, infected []int) *policygraph.Graph {
	return policygraph.IsolateNodes(base, infected)
}

// Baseline returns G1 (grid-8 adjacency), the Geo-Indistinguishability-
// equivalent policy of Fig. 2.
func Baseline(grid *geo.Grid) *policygraph.Graph {
	return policygraph.GridEightNeighbor(grid)
}

// UserPolicy is a user's current policy assignment.
type UserPolicy struct {
	// Graph is shared between users (every user holds the manager's
	// current graph), so treat it as read-only.
	Graph *policygraph.Graph
	// GraphJSON is the canonical encoding Graph.MarshalJSON writes,
	// computed once per graph and shared like it; read-only as well.
	// Only the manager's newSnapshot sets it. The server writes it into
	// responses as is, without validating or compacting it, so it must
	// stay exactly what MarshalJSON produced.
	GraphJSON json.RawMessage
	// GraphID is GraphID(GraphJSON), the graph's content ID.
	GraphID string
	Epsilon float64
	Version int // effective marks plus one; a bump triggers client re-sends
}

// GraphID returns the content ID of a graph encoding: the hex of the
// first 16 bytes of its SHA-256. Graph.MarshalJSON writes one canonical
// form, so equal graphs encode to equal bytes and get equal IDs on every
// node, whatever order their marks arrived in. The manager names its
// graphs with it, and a client recomputes it over the bytes it downloads.
func GraphID(graphJSON []byte) string {
	sum := sha256.Sum256(graphJSON)
	return hex.EncodeToString(sum[:16])
}

// Manager hands out users' policies. It is safe for concurrent use — the
// server mutates policies (infection updates) while clients read them.
//
// Every user holds the same policy, kept as one immutable snapshot per
// effective mark: the default graph with the infected cells isolated,
// its encoding, ε and the version. The version is the number of
// effective marks plus one, so on one node a version names one graph.
// A mark builds and swaps in the next snapshot and touches no user.
// The only per-user state is the set of users handed a policy.
//
// A user who rejects a policy releases nothing (§2.1: "The user has the
// right to reject a privacy policy so that no location will be
// released"). That decision is the phone's, so the manager keeps no
// consent state.
type Manager struct {
	grid         *geo.Grid
	defaultGraph *policygraph.Graph
	snap         atomic.Pointer[snapshot]
	markMu       sync.Mutex // serializes MarkInfected's build and swap

	// users holds every user Get has seen. A map of ints holds no
	// pointers, so however large it grows a GC cycle does not scan it.
	usersMu sync.RWMutex
	users   map[int]struct{}
}

// snapshot is the policy every user holds after one effective mark,
// with the infected cells its graph isolates. It is never modified
// once published.
type snapshot struct {
	policy   UserPolicy
	infected []int // sorted, without duplicates
}

// newSnapshot encodes g once. It calls MarshalJSON itself: json.Marshal
// would re-compact bytes that are already compact.
func newSnapshot(g *policygraph.Graph, eps float64, version int, infected []int) *snapshot {
	b, _ := g.MarshalJSON() // never fails
	return &snapshot{
		policy:   UserPolicy{Graph: g, GraphJSON: b, GraphID: GraphID(b), Epsilon: eps, Version: version},
		infected: infected,
	}
}

// NewManager creates a manager handing out the given default policy.
func NewManager(grid *geo.Grid, defaultGraph *policygraph.Graph, eps float64) (*Manager, error) {
	if grid == nil || defaultGraph == nil {
		return nil, errors.New("policy: nil grid or graph")
	}
	if defaultGraph.NumNodes() != grid.NumCells() {
		return nil, fmt.Errorf("policy: graph over %d nodes, grid has %d cells",
			defaultGraph.NumNodes(), grid.NumCells())
	}
	if err := dp.CheckEpsilon(eps); err != nil {
		return nil, fmt.Errorf("policy: %w", err)
	}
	m := &Manager{grid: grid, defaultGraph: defaultGraph, users: make(map[int]struct{})}
	m.snap.Store(newSnapshot(defaultGraph, eps, 1, nil))
	return m, nil
}

// Get returns the user's policy, registering a user it has not seen.
// For a known user it takes no exclusive lock and allocates nothing.
// It registers before it loads the snapshot, so a caller that lists
// Users after a mark lists every user handed the version before it.
func (m *Manager) Get(user int) UserPolicy {
	if !m.known(user) {
		m.usersMu.Lock()
		m.users[user] = struct{}{}
		m.usersMu.Unlock()
	}
	return m.snap.Load().policy
}

// MarkInfected records newly infected (disclosable) cells: it builds
// the contact-tracing variant of the default policy once and swaps it
// in one version up, touching no user. It reports whether the mark was
// effective, that is whether cells held an in-range cell not marked
// before.
func (m *Manager) MarkInfected(cells []int) bool {
	m.markMu.Lock()
	defer m.markMu.Unlock()
	cur := m.snap.Load()
	infected := slices.Clone(cur.infected)
	for _, c := range cells {
		if m.grid.InRange(c) {
			infected = append(infected, c)
		}
	}
	slices.Sort(infected)
	if infected = slices.Compact(infected); len(infected) == len(cur.infected) {
		return false
	}
	g := policygraph.IsolateNodes(m.defaultGraph, infected)
	m.snap.Store(newSnapshot(g, cur.policy.Epsilon, cur.policy.Version+1, infected))
	return true
}

// InfectedCells returns the accumulated disclosable cells, ascending.
// The slice is shared with every other caller: treat it as read-only.
func (m *Manager) InfectedCells() []int { return m.snap.Load().infected }

// Version returns the node's policy version, or 0 for a user the
// manager has never seen.
func (m *Manager) Version(user int) int {
	if !m.known(user) {
		return 0
	}
	return m.snap.Load().policy.Version
}

// Users returns the IDs of all users handed a policy, ascending.
func (m *Manager) Users() []int {
	m.usersMu.RLock()
	out := slices.AppendSeq(make([]int, 0, len(m.users)), maps.Keys(m.users))
	m.usersMu.RUnlock()
	slices.Sort(out)
	return out
}

// known reports whether Get has seen user.
func (m *Manager) known(user int) bool {
	m.usersMu.RLock()
	_, ok := m.users[user]
	m.usersMu.RUnlock()
	return ok
}
