package roadnet

import (
	"fmt"
	"math/rand/v2"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policygraph"
)

// RoadMap marks which cells of a grid are streets.
type RoadMap struct {
	Grid   *geo.Grid
	isRoad []bool
	roads  []int // sorted road cell IDs
}

// Manhattan builds a Manhattan-style street layout: every spacing-th row
// and column is a street, everything else is buildings. spacing ≥ 2.
func Manhattan(grid *geo.Grid, spacing int) (*RoadMap, error) {
	if spacing < 2 {
		return nil, fmt.Errorf("roadnet: spacing must be ≥ 2, got %d", spacing)
	}
	rm := &RoadMap{Grid: grid, isRoad: make([]bool, grid.NumCells())}
	for id := 0; id < grid.NumCells(); id++ {
		c := grid.CellOf(id)
		if c.Row%spacing == 0 || c.Col%spacing == 0 {
			rm.isRoad[id] = true
			rm.roads = append(rm.roads, id)
		}
	}
	return rm, nil
}

// IsRoad reports whether a cell is a street.
func (rm *RoadMap) IsRoad(id int) bool {
	return rm.Grid.InRange(id) && rm.isRoad[id]
}

// Roads returns the sorted street cell IDs (shared slice; do not modify).
func (rm *RoadMap) Roads() []int { return rm.roads }

// RandomRoad returns a uniformly random street cell.
func (rm *RoadMap) RandomRoad(rng *rand.Rand) int {
	return rm.roads[rng.IntN(len(rm.roads))]
}

// Neighbors returns the 4-adjacent street cells of a street cell —
// movement along roads only.
func (rm *RoadMap) Neighbors(id int) []int {
	if !rm.IsRoad(id) {
		return nil
	}
	var out []int
	for _, n := range rm.Grid.Neighbors4(id) {
		if rm.isRoad[n] {
			out = append(out, n)
		}
	}
	return out
}

// PolicyGraph builds the Geo-Graph-Indistinguishability policy: street
// cells connected to adjacent street cells. Building cells stay isolated
// (they are not possible locations, so no protection is required — and a
// mechanism over this policy never releases them). Under {ε,G}-location
// privacy this yields ε·d_road indistinguishability, the GGI guarantee.
func (rm *RoadMap) PolicyGraph() *policygraph.Graph {
	g := policygraph.New(rm.Grid.NumCells())
	for _, id := range rm.roads {
		for _, n := range rm.Neighbors(id) {
			g.AddEdge(id, n)
		}
	}
	return g
}

// RoadDistance returns the shortest-path hop distance between two street
// cells along the network, or -1 if disconnected or off-road. Network
// distance is the right utility metric for LBS over roads.
func (rm *RoadMap) RoadDistance(a, b int) int {
	if !rm.IsRoad(a) || !rm.IsRoad(b) {
		return -1
	}
	if a == b {
		return 0
	}
	dist := map[int]int{a: 0}
	queue := []int{a}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range rm.Neighbors(u) {
			if _, seen := dist[v]; seen {
				continue
			}
			dist[v] = dist[u] + 1
			if v == b {
				return dist[v]
			}
			queue = append(queue, v)
		}
	}
	return -1
}

// NearestRoad snaps an arbitrary cell to the closest street cell by
// Euclidean distance (ties broken by lower ID). Used to project off-road
// releases (e.g. from the Geo-I baseline) back onto the network.
func (rm *RoadMap) NearestRoad(id int) int {
	if rm.IsRoad(id) {
		return id
	}
	best, bestD := rm.roads[0], rm.Grid.EuclidCells(id, rm.roads[0])
	for _, r := range rm.roads[1:] {
		if d := rm.Grid.EuclidCells(id, r); d < bestD {
			best, bestD = r, d
		}
	}
	return best
}

// RandomWalk generates a road-constrained trajectory of the given length
// starting from a random street cell: at each step the walker keeps
// direction with momentum or turns at intersections.
func (rm *RoadMap) RandomWalk(rng *rand.Rand, steps int) ([]int, error) {
	if steps <= 0 {
		return nil, fmt.Errorf("roadnet: steps must be positive, got %d", steps)
	}
	cur := rm.RandomRoad(rng)
	out := make([]int, steps)
	prev := -1
	for t := 0; t < steps; t++ {
		out[t] = cur
		ns := rm.Neighbors(cur)
		if len(ns) == 0 {
			continue // isolated road cell: stay
		}
		// Momentum: avoid immediately backtracking when possible.
		cands := ns[:0:0]
		for _, n := range ns {
			if n != prev {
				cands = append(cands, n)
			}
		}
		if len(cands) == 0 {
			cands = ns
		}
		prev = cur
		cur = cands[rng.IntN(len(cands))]
	}
	return out, nil
}
