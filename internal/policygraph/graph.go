package policygraph

import (
	"fmt"
	"sort"
)

// Graph is an undirected location policy graph over the node universe
// {0, …, n-1}. The zero value is not usable; construct with New.
//
// Nodes with no incident edges are "unprotected": the policy places no
// indistinguishability requirement on them, so a mechanism may release them
// exactly (paper §2.2, discussion after Lemma 2.1).
type Graph struct {
	n   int
	adj []map[int]struct{}
	m   int // edge count
}

// New returns an empty policy graph over n nodes.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{n: n, adj: make([]map[int]struct{}, n)}
}

// NumNodes returns the size of the node universe.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.m }

// check panics on out-of-range nodes; policy graphs are built
// programmatically and an out-of-range node is a programming error.
func (g *Graph) check(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("policygraph: node %d out of range [0,%d)", u, g.n))
	}
}

// AddEdge inserts the undirected edge {u, v}. Self-loops are rejected
// (a location is trivially indistinguishable from itself); duplicate edges
// are ignored. It reports whether a new edge was added.
func (g *Graph) AddEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	if u == v {
		return false
	}
	if g.adj[u] == nil {
		g.adj[u] = make(map[int]struct{})
	}
	if g.adj[v] == nil {
		g.adj[v] = make(map[int]struct{})
	}
	if _, dup := g.adj[u][v]; dup {
		return false
	}
	g.adj[u][v] = struct{}{}
	g.adj[v][u] = struct{}{}
	g.m++
	return true
}

// RemoveEdge deletes the undirected edge {u, v} if present and reports
// whether an edge was removed.
func (g *Graph) RemoveEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	if _, ok := g.adj[u][v]; !ok {
		return false
	}
	delete(g.adj[u], v)
	delete(g.adj[v], u)
	g.m--
	return true
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	_, ok := g.adj[u][v]
	return ok
}

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int) int {
	g.check(u)
	return len(g.adj[u])
}

// Neighbors returns the sorted neighbor list of u (a fresh slice).
func (g *Graph) Neighbors(u int) []int {
	g.check(u)
	out := make([]int, 0, len(g.adj[u]))
	for v := range g.adj[u] {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Edges returns all edges as (u, v) pairs with u < v, sorted
// lexicographically.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for u := 0; u < g.n; u++ {
		for v := range g.adj[u] {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// IsolatedNodes returns the sorted list of degree-0 nodes — the locations
// the policy allows to be disclosed exactly.
func (g *Graph) IsolatedNodes() []int {
	var out []int
	for u := 0; u < g.n; u++ {
		if len(g.adj[u]) == 0 {
			out = append(out, u)
		}
	}
	return out
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for u := 0; u < g.n; u++ {
		for v := range g.adj[u] {
			if u < v {
				c.AddEdge(u, v)
			}
		}
	}
	return c
}

// Equal reports whether g and h have identical node universes and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if h == nil || g.n != h.n || g.m != h.m {
		return false
	}
	for u := 0; u < g.n; u++ {
		if len(g.adj[u]) != len(h.adj[u]) {
			return false
		}
		for v := range g.adj[u] {
			if _, ok := h.adj[u][v]; !ok {
				return false
			}
		}
	}
	return true
}

// InducedSubgraph returns a new graph over the same node universe that
// keeps only edges with both endpoints in keep. Nodes outside keep become
// isolated. This models restricting a policy to an adversary's feasible
// location set (δ-location set).
func (g *Graph) InducedSubgraph(keep []int) *Graph {
	in := make([]bool, g.n)
	for _, u := range keep {
		if u >= 0 && u < g.n {
			in[u] = true
		}
	}
	c := New(g.n)
	for u := 0; u < g.n; u++ {
		if !in[u] {
			continue
		}
		for v := range g.adj[u] {
			if u < v && in[v] {
				c.AddEdge(u, v)
			}
		}
	}
	return c
}

// String implements fmt.Stringer with a compact summary.
func (g *Graph) String() string {
	return fmt.Sprintf("policygraph{n=%d m=%d}", g.n, g.m)
}
