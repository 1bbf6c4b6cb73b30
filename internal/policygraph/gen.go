package policygraph

import (
	"math/rand/v2"

	"github.com/pglp/panda/internal/geo"
)

// GridEightNeighbor builds policy graph G1 of paper Fig. 2: every cell is
// connected to its closest eight cells on the map. PGLP under G1 implies
// ε-Geo-Indistinguishability (Theorem 2.1).
func GridEightNeighbor(grid *geo.Grid) *Graph {
	g := New(grid.NumCells())
	for id := 0; id < grid.NumCells(); id++ {
		for _, v := range grid.Neighbors8(id) {
			g.AddEdge(id, v)
		}
	}
	return g
}

// GridFourNeighbor builds the 4-adjacency variant of G1 (ablation).
func GridFourNeighbor(grid *geo.Grid) *Graph {
	g := New(grid.NumCells())
	for id := 0; id < grid.NumCells(); id++ {
		for _, v := range grid.Neighbors4(id) {
			g.AddEdge(id, v)
		}
	}
	return g
}

// Complete builds policy graph G2 of paper Fig. 2: a complete graph over
// the given location set (e.g. a δ-location set), leaving all other nodes
// isolated. PGLP under G2 implies δ-Location Set privacy (Theorem 2.2).
// If set is nil, the clique covers the whole universe.
func Complete(n int, set []int) *Graph {
	g := New(n)
	if set == nil {
		set = make([]int, n)
		for i := range set {
			set[i] = i
		}
	}
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			g.AddEdge(set[i], set[j])
		}
	}
	return g
}

// PartitionCliques builds the Ga/Gb family of paper Fig. 4: the grid is cut
// into blockRows×blockCols coarse areas; locations inside the same area are
// pairwise indistinguishable (a clique), while locations in different areas
// are distinguishable (no edges across areas). Location monitoring uses a
// coarse blocking (Ga); epidemic analysis a finer one (Gb).
func PartitionCliques(grid *geo.Grid, blockRows, blockCols int) *Graph {
	g := New(grid.NumCells())
	for _, region := range grid.Partition(blockRows, blockCols) {
		for i := 0; i < len(region); i++ {
			for j := i + 1; j < len(region); j++ {
				g.AddEdge(region[i], region[j])
			}
		}
	}
	return g
}

// IsolateNodes builds policy graph Gc of paper Fig. 4 from a base policy:
// every edge incident to a node in disclose is removed, so those locations
// may be released exactly ("allowing disclosure of the true location if the
// user accesses an infected location"), while the remaining locations keep
// their indistinguishability requirements.
func IsolateNodes(base *Graph, disclose []int) *Graph {
	keep := make([]bool, base.n)
	for u := range keep {
		keep[u] = true
	}
	for _, u := range disclose {
		if u >= 0 && u < base.n {
			keep[u] = false
		}
	}
	return base.restrict(keep)
}

// RandomER builds an Erdős–Rényi policy graph G(n, p) over the whole node
// universe: each pair becomes an edge independently with probability p.
func RandomER(n int, p float64, rng *rand.Rand) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// RandomSubsetER reproduces the "Random Policy Graph" control of paper
// Fig. 5 (knobs: Size, Density): choose `size` distinct nodes uniformly at
// random from the universe and connect each pair among them independently
// with probability `density`. All other locations stay isolated
// (disclosable).
func RandomSubsetER(n, size int, density float64, rng *rand.Rand) *Graph {
	if size > n {
		size = n
	}
	perm := rng.Perm(n)
	set := perm[:size]
	g := New(n)
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			if rng.Float64() < density {
				g.AddEdge(set[i], set[j])
			}
		}
	}
	return g
}

// Path builds a path graph 0-1-2-…-(n-1); used by tests and by degenerate
// (collinear) PIM scenarios.
func Path(n int) *Graph {
	g := New(n)
	for u := 0; u+1 < n; u++ {
		g.AddEdge(u, u+1)
	}
	return g
}
