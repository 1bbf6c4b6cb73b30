package policy

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

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
	// Only the manager's encodeGraph sets it. The server writes it into
	// responses as is, without validating or compacting it, so it must
	// stay exactly what MarshalJSON produced.
	GraphJSON json.RawMessage
	// GraphID is GraphID(GraphJSON), the graph's content ID.
	GraphID string
	Epsilon float64
	Version int // bumped on every change; triggers client re-sends
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

// encodedGraph is a policy graph together with its JSON encoding and
// the encoding's content ID.
type encodedGraph struct {
	graph *policygraph.Graph
	json  json.RawMessage
	id    string
}

// encodeGraph pairs g with its encoding and ID. It calls MarshalJSON
// itself: json.Marshal would re-compact bytes that are already compact.
func encodeGraph(g *policygraph.Graph) encodedGraph {
	b, _ := g.MarshalJSON() // never fails
	return encodedGraph{graph: g, json: b, id: GraphID(b)}
}

// checkEpsilon refuses an ε that is not a positive finite number, as
// core.Policy.Validate does; NaN and +Inf pass an eps <= 0 test alone.
func checkEpsilon(eps float64) error {
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return fmt.Errorf("policy: epsilon must be positive and finite, got %v", eps)
	}
	return nil
}

// Manager hands out users' policies. It is safe for concurrent use — the
// server mutates policies (infection updates) while clients read them.
//
// Every user holds the same policy: the default graph with the infected
// cells isolated, and its encoding, kept as one immutable snapshot per
// infection epoch. An infection update builds the next snapshot once.
// The only per-user state is a version, which counts the effective marks
// since the user was first seen, plus one.
//
// A user who rejects a policy releases nothing (§2.1: "The user has the
// right to reject a privacy policy so that no location will be
// released"). That decision is the phone's, so the manager keeps no
// consent state.
type Manager struct {
	mu           sync.RWMutex
	grid         *geo.Grid
	defaultGraph *policygraph.Graph
	eps          float64
	current      encodedGraph // defaultGraph with the infected cells isolated
	users        map[int]int  // user -> policy version
	infected     map[int]bool // accumulated disclosable cells
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
	if err := checkEpsilon(eps); err != nil {
		return nil, err
	}
	return &Manager{
		grid:         grid,
		defaultGraph: defaultGraph,
		eps:          eps,
		current:      encodeGraph(defaultGraph),
		users:        make(map[int]int),
		infected:     make(map[int]bool),
	}, nil
}

// Get returns the user's policy, starting an unknown user at version 1.
func (m *Manager) Get(user int) UserPolicy {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.users[user]
	if !ok {
		v = 1
		m.users[user] = v
	}
	return UserPolicy{Graph: m.current.graph, GraphJSON: m.current.json, GraphID: m.current.id, Epsilon: m.eps, Version: v}
}

func (m *Manager) infectedListLocked() []int {
	out := make([]int, 0, len(m.infected))
	for c := range m.infected {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// MarkInfected records newly infected (disclosable) cells, builds the
// contact-tracing variant of the default policy once, and bumps every
// known user's version. It returns the users whose policies changed.
func (m *Manager) MarkInfected(cells []int) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	changed := false
	for _, c := range cells {
		if c >= 0 && c < m.grid.NumCells() && !m.infected[c] {
			m.infected[c] = true
			changed = true
		}
	}
	if !changed {
		return nil
	}
	m.current = encodeGraph(policygraph.IsolateNodes(m.defaultGraph, m.infectedListLocked()))
	users := make([]int, 0, len(m.users))
	for id := range m.users {
		m.users[id]++
		users = append(users, id)
	}
	sort.Ints(users)
	return users
}

// InfectedCells returns the accumulated disclosable cells.
func (m *Manager) InfectedCells() []int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.infectedListLocked()
}

// Version returns the user's current policy version (0 if unknown).
func (m *Manager) Version(user int) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.users[user]
}

// Users returns the IDs of all users with assigned policies.
func (m *Manager) Users() []int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]int, 0, len(m.users))
	for id := range m.users {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}
