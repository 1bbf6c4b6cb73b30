package policygraph

import (
	"fmt"
	"slices"
)

// Graph is an undirected location policy graph over the node universe
// {0, …, n-1}. The zero value is not usable; construct with New.
//
// Nodes with no incident edges are "unprotected": the policy places no
// indistinguishability requirement on them, so a mechanism may release them
// exactly (paper §2.2, discussion after Lemma 2.1).
type Graph struct {
	n int
	// adj[u] is u's neighbor list in ascending order. A graph built in
	// bulk (Clone, restrict, fromPairs) keeps all lists in one backing
	// array, each capped at its own end, so growing one list in AddEdge
	// moves it rather than writing over the next node's list.
	adj [][]int
	m   int // edge count
}

// New returns an empty policy graph over n nodes.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{n: n, adj: make([][]int, n)}
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
	i, dup := slices.BinarySearch(g.adj[u], v)
	if dup {
		return false
	}
	j, _ := slices.BinarySearch(g.adj[v], u)
	g.adj[u] = slices.Insert(g.adj[u], i, v)
	g.adj[v] = slices.Insert(g.adj[v], j, u)
	g.m++
	return true
}

// RemoveEdge deletes the undirected edge {u, v} if present and reports
// whether an edge was removed.
func (g *Graph) RemoveEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	i, ok := slices.BinarySearch(g.adj[u], v)
	if !ok {
		return false
	}
	j, _ := slices.BinarySearch(g.adj[v], u)
	g.adj[u] = slices.Delete(g.adj[u], i, i+1)
	g.adj[v] = slices.Delete(g.adj[v], j, j+1)
	g.m--
	return true
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	_, ok := slices.BinarySearch(g.adj[u], v)
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
	return slices.Clone(g.adj[u])
}

// Edges returns all edges as (u, v) pairs with u < v, sorted
// lexicographically.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for u, nbrs := range g.adj {
		for _, v := range nbrs {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

// IsolatedNodes returns the sorted list of degree-0 nodes — the locations
// the policy allows to be disclosed exactly.
func (g *Graph) IsolatedNodes() []int {
	var out []int
	for u, nbrs := range g.adj {
		if len(nbrs) == 0 {
			out = append(out, u)
		}
	}
	return out
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph { return g.restrict(nil) }

// Equal reports whether g and h have identical node universes and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if h == nil || g.n != h.n || g.m != h.m {
		return false
	}
	for u := range g.adj {
		if !slices.Equal(g.adj[u], h.adj[u]) {
			return false
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
	return g.restrict(in)
}

// restrict returns a copy of g, built in bulk, that keeps an edge only if
// keep marks both its endpoints; a nil keep keeps every edge.
func (g *Graph) restrict(keep []bool) *Graph {
	c := &Graph{n: g.n, adj: make([][]int, g.n)}
	back := make([]int, 0, 2*g.m)
	for u, nbrs := range g.adj {
		if keep != nil && !keep[u] {
			continue
		}
		lo := len(back)
		for _, v := range nbrs {
			if keep == nil || keep[v] {
				back = append(back, v)
			}
		}
		c.adj[u] = back[lo:len(back):len(back)]
	}
	c.m = len(back) / 2
	return c
}

// fromPairs builds a graph over n nodes from its edges, given as a flat
// list u0, v0, u1, v1, … of pairs with u < v < n in strictly ascending
// lexicographic order. For each node x, the pairs (w, x) come before the
// pairs (x, y), and each group is in ascending order of its other end, so
// appending in pair order leaves every list sorted.
func fromPairs(n int, pairs []int) *Graph {
	g := &Graph{n: n, adj: make([][]int, n), m: len(pairs) / 2}
	start := make([]int, n+1)
	for _, u := range pairs {
		start[u+1]++
	}
	for u := 1; u <= n; u++ {
		start[u] += start[u-1]
	}
	back := make([]int, len(pairs))
	for u := range g.adj {
		g.adj[u] = back[start[u]:start[u]:start[u+1]]
	}
	for i := 0; i < len(pairs); i += 2 {
		u, v := pairs[i], pairs[i+1]
		g.adj[u] = append(g.adj[u], v)
		g.adj[v] = append(g.adj[v], u)
	}
	return g
}

// String implements fmt.Stringer with a compact summary.
func (g *Graph) String() string {
	return fmt.Sprintf("policygraph{n=%d m=%d}", g.n, g.m)
}
