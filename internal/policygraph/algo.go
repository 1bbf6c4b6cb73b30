package policygraph

import "slices"

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
	queue := make([]int, 1, 16)
	queue[0] = s
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.adj[u] {
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
			for _, y := range g.adj[x] {
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
	seen := make([]bool, g.n)
	seen[s] = true
	out := []int{s}
	for head := 0; head < len(out); head++ {
		for _, v := range g.adj[out[head]] {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	slices.Sort(out)
	return out
}

// Components returns all connected components, each sorted, ordered by
// their smallest node.
func (g *Graph) Components() [][]int {
	_, comps := g.ComponentIndex()
	return comps
}

// ComponentIndex labels every node with the index of its component and
// returns the components, in the order and form Components returns them.
// It walks the graph once: a BFS from each unlabeled node, in ascending
// order, numbers the components in order of their smallest node, and one
// pass over the nodes in ascending order then lists each component
// sorted, all in one backing array.
func (g *Graph) ComponentIndex() (idx []int, comps [][]int) {
	idx = make([]int, g.n)
	for i := range idx {
		idx[i] = -1
	}
	var size []int
	queue := make([]int, 0, 16)
	for s := range g.n {
		if idx[s] >= 0 {
			continue
		}
		ci := len(size)
		idx[s] = ci
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			for _, v := range g.adj[queue[head]] {
				if idx[v] < 0 {
					idx[v] = ci
					queue = append(queue, v)
				}
			}
		}
		size = append(size, len(queue))
	}
	back := make([]int, g.n)
	comps = make([][]int, len(size))
	lo := 0
	for ci, k := range size {
		comps[ci] = back[lo : lo : lo+k]
		lo += k
	}
	for u, ci := range idx {
		comps[ci] = append(comps[ci], u)
	}
	return idx, comps
}

// IsConnected reports whether the graph has a single connected component
// (requires n >= 1).
func (g *Graph) IsConnected() bool {
	if g.n == 0 {
		return false
	}
	return len(g.ComponentOf(0)) == g.n
}
