package policygraph

import "sort"

// Unreachable is the distance reported between nodes in different
// components (dG = ∞ in the paper; such pairs carry no
// indistinguishability requirement, Lemma 2.1).
const Unreachable = -1

// DistancesFrom returns the BFS hop distances from s to every node.
// Unreachable nodes get Unreachable (-1).
func (g *Graph) DistancesFrom(s int) []int {
	g.check(s)
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[s] = 0
	queue := make([]int, 0, 16)
	queue = append(queue, s)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for v := range g.adj[u] {
			if dist[v] == Unreachable {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Distance returns the shortest-path length dG(u, v) (paper Def. 2.2), or
// Unreachable if u and v are disconnected.
func (g *Graph) Distance(u, v int) int {
	g.check(u)
	g.check(v)
	if u == v {
		return 0
	}
	// Bidirectional BFS.
	du := map[int]int{u: 0}
	dv := map[int]int{v: 0}
	qu, qv := []int{u}, []int{v}
	for len(qu) > 0 && len(qv) > 0 {
		if len(qu) > len(qv) {
			qu, qv = qv, qu
			du, dv = dv, du
		}
		var next []int
		for _, x := range qu {
			for y := range g.adj[x] {
				if d, met := dv[y]; met {
					return du[x] + 1 + d
				}
				if _, seen := du[y]; !seen {
					du[y] = du[x] + 1
					next = append(next, y)
				}
			}
		}
		qu = next
	}
	return Unreachable
}

// ComponentOf returns N^∞(s): the sorted connected component containing s.
func (g *Graph) ComponentOf(s int) []int {
	g.check(s)
	seen := map[int]bool{s: true}
	queue := []int{s}
	out := []int{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for v := range g.adj[u] {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
				out = append(out, v)
			}
		}
	}
	sort.Ints(out)
	return out
}

// Components returns all connected components, each sorted, ordered by
// their smallest node.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		comp := []int{s}
		seen[s] = true
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for v := range g.adj[u] {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
					comp = append(comp, v)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// ComponentIndex labels every node with the index of its component in the
// order returned by Components.
func (g *Graph) ComponentIndex() []int {
	idx := make([]int, g.n)
	for i := range idx {
		idx[i] = -1
	}
	for ci, comp := range g.Components() {
		for _, u := range comp {
			idx[u] = ci
		}
	}
	return idx
}

// IsConnected reports whether the graph has a single connected component
// (requires n >= 1).
func (g *Graph) IsConnected() bool {
	if g.n == 0 {
		return false
	}
	return len(g.ComponentOf(0)) == g.n
}
