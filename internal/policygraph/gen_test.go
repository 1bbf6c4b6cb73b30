package policygraph

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/pglp/panda/internal/geo"
)

func TestGridEightNeighbor(t *testing.T) {
	grid := geo.MustGrid(3, 3, 1)
	g := GridEightNeighbor(grid)
	if g.NumNodes() != 9 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// 3x3 grid: 12 orthogonal + 8 diagonal edges = 20.
	if g.NumEdges() != 20 {
		t.Errorf("edges = %d, want 20", g.NumEdges())
	}
	center := grid.ID(geo.Cell{Row: 1, Col: 1})
	if g.Degree(center) != 8 {
		t.Errorf("center degree = %d, want 8", g.Degree(center))
	}
	if !g.IsConnected() {
		t.Error("G1 should be connected")
	}
}

func TestGridFourNeighbor(t *testing.T) {
	grid := geo.MustGrid(3, 3, 1)
	g := GridFourNeighbor(grid)
	if g.NumEdges() != 12 {
		t.Errorf("edges = %d, want 12", g.NumEdges())
	}
	if !g.IsConnected() {
		t.Error("4-neighbor grid should be connected")
	}
}

func TestComplete(t *testing.T) {
	g := Complete(6, []int{1, 3, 5})
	if g.NumEdges() != 3 {
		t.Errorf("edges = %d, want 3", g.NumEdges())
	}
	if !g.HasEdge(1, 3) || !g.HasEdge(3, 5) || !g.HasEdge(1, 5) {
		t.Error("clique edges missing")
	}
	if g.Degree(0) != 0 || g.Degree(2) != 0 {
		t.Error("non-set nodes should stay isolated")
	}
	full := Complete(5, nil)
	if full.NumEdges() != 10 {
		t.Errorf("full clique edges = %d, want 10", full.NumEdges())
	}
}

func TestPartitionCliques(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	g := PartitionCliques(grid, 2, 2)
	// 4 regions of 4 cells: each a K4 with 6 edges.
	if g.NumEdges() != 24 {
		t.Errorf("edges = %d, want 24", g.NumEdges())
	}
	comps := g.Components()
	if len(comps) != 4 {
		t.Fatalf("components = %d, want 4", len(comps))
	}
	for _, comp := range comps {
		if len(comp) != 4 {
			t.Errorf("component size = %d, want 4", len(comp))
		}
		region := grid.RegionOf(comp[0], 2, 2)
		for _, id := range comp {
			if grid.RegionOf(id, 2, 2) != region {
				t.Error("component crosses region boundary")
			}
		}
	}
	// Within a region all pairs are 1-neighbors (complete).
	if g.Distance(comps[0][0], comps[0][3]) != 1 {
		t.Error("clique distance should be 1")
	}
}

func TestIsolateNodes(t *testing.T) {
	grid := geo.MustGrid(3, 3, 1)
	base := GridEightNeighbor(grid)
	infected := []int{4} // center cell
	g := IsolateNodes(base, infected)
	if g.Degree(4) != 0 {
		t.Errorf("infected node degree = %d, want 0", g.Degree(4))
	}
	// Base graph must be unchanged (IsolateNodes clones).
	if base.Degree(4) != 8 {
		t.Error("IsolateNodes must not mutate the base graph")
	}
	// Other nodes keep their mutual edges.
	if !g.HasEdge(0, 1) {
		t.Error("edges between healthy cells should remain")
	}
	// Out-of-range disclose entries are ignored.
	g2 := IsolateNodes(base, []int{-3, 99})
	if !g2.Equal(base) {
		t.Error("out-of-range isolation should be a no-op")
	}
}

func TestRandomERDensity(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	n, p := 40, 0.3
	g := RandomER(n, p, rng)
	maxEdges := n * (n - 1) / 2
	got := float64(g.NumEdges()) / float64(maxEdges)
	if math.Abs(got-p) > 0.08 {
		t.Errorf("empirical density = %v, want ≈%v", got, p)
	}
}

func TestRandomSubsetER(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 8))
	g := RandomSubsetER(100, 20, 0.5, rng)
	touched := 0
	for u := 0; u < 100; u++ {
		if g.Degree(u) > 0 {
			touched++
		}
	}
	if touched > 20 {
		t.Errorf("%d nodes touched, want ≤ size 20", touched)
	}
	if g.NumEdges() == 0 {
		t.Error("expected some edges at density 0.5")
	}
	// size > n clamps.
	g2 := RandomSubsetER(5, 50, 1, rng)
	if g2.NumEdges() != 10 {
		t.Errorf("clamped subset edges = %d, want 10", g2.NumEdges())
	}
}

func TestPathCycleStar(t *testing.T) {
	if Path(1).NumEdges() != 0 || Path(4).NumEdges() != 3 {
		t.Error("Path edge counts wrong")
	}
}
