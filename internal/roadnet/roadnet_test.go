package roadnet

import (
	"testing"

	"github.com/pglp/panda/internal/dp"
	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/mechanism"
)

func TestManhattanLayout(t *testing.T) {
	grid := geo.MustGrid(9, 9, 1)
	rm, err := Manhattan(grid, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Rows 0,4,8 and cols 0,4,8 are streets.
	if !rm.IsRoad(grid.ID(geo.Cell{Row: 0, Col: 3})) {
		t.Error("row 0 should be street")
	}
	if !rm.IsRoad(grid.ID(geo.Cell{Row: 3, Col: 4})) {
		t.Error("col 4 should be street")
	}
	if rm.IsRoad(grid.ID(geo.Cell{Row: 1, Col: 1})) {
		t.Error("(1,1) should be a building")
	}
	if len(rm.Roads()) == 0 || len(rm.Roads()) >= grid.NumCells() {
		t.Errorf("roads = %d", len(rm.Roads()))
	}
	if _, err := Manhattan(grid, 1); err == nil {
		t.Error("spacing 1 should error")
	}
}

func TestNeighborsFollowStreets(t *testing.T) {
	grid := geo.MustGrid(9, 9, 1)
	rm, _ := Manhattan(grid, 4)
	// A mid-street cell on row 0 has street neighbors left/right but its
	// southern neighbor is a building (col 1 is not a multiple of 4).
	id := grid.ID(geo.Cell{Row: 0, Col: 1})
	ns := rm.Neighbors(id)
	for _, n := range ns {
		if !rm.IsRoad(n) {
			t.Fatalf("neighbor %d is not a street", n)
		}
	}
	if len(ns) != 2 {
		t.Errorf("street cell (0,1) has %d road neighbors, want 2", len(ns))
	}
	// Intersections have more.
	inter := grid.ID(geo.Cell{Row: 4, Col: 4})
	if len(rm.Neighbors(inter)) != 4 {
		t.Errorf("intersection has %d road neighbors, want 4", len(rm.Neighbors(inter)))
	}
	if rm.Neighbors(grid.ID(geo.Cell{Row: 1, Col: 1})) != nil {
		t.Error("building cells have no road neighbors")
	}
}

func TestPolicyGraphIsRoadAdjacency(t *testing.T) {
	grid := geo.MustGrid(9, 9, 1)
	rm, _ := Manhattan(grid, 4)
	g := rm.PolicyGraph()
	// Every edge connects adjacent street cells.
	for _, e := range g.Edges() {
		if !rm.IsRoad(e[0]) || !rm.IsRoad(e[1]) {
			t.Fatalf("edge %v touches a building", e)
		}
	}
	// Buildings are isolated.
	b := grid.ID(geo.Cell{Row: 1, Col: 1})
	if g.Degree(b) != 0 {
		t.Error("building should be isolated in the policy graph")
	}
	// The street network is connected on a Manhattan layout.
	comp := g.ComponentOf(rm.Roads()[0])
	if len(comp) != len(rm.Roads()) {
		t.Errorf("street component %d of %d roads", len(comp), len(rm.Roads()))
	}
}

func TestRoadDistance(t *testing.T) {
	grid := geo.MustGrid(9, 9, 1)
	rm, _ := Manhattan(grid, 4)
	a := grid.ID(geo.Cell{Row: 0, Col: 0})
	b := grid.ID(geo.Cell{Row: 0, Col: 8})
	if d := rm.RoadDistance(a, b); d != 8 {
		t.Errorf("straight-street distance = %d, want 8", d)
	}
	if d := rm.RoadDistance(a, a); d != 0 {
		t.Errorf("self distance = %d", d)
	}
	// Around-the-block: (4,1)... both on streets; distance via network.
	c := grid.ID(geo.Cell{Row: 4, Col: 4})
	if d := rm.RoadDistance(a, c); d != 8 {
		t.Errorf("corner-to-intersection = %d, want 8", d)
	}
	if d := rm.RoadDistance(a, grid.ID(geo.Cell{Row: 1, Col: 1})); d != -1 {
		t.Error("off-road distance should be -1")
	}
}

func TestNearestRoad(t *testing.T) {
	grid := geo.MustGrid(9, 9, 1)
	rm, _ := Manhattan(grid, 4)
	b := grid.ID(geo.Cell{Row: 1, Col: 1})
	n := rm.NearestRoad(b)
	if !rm.IsRoad(n) {
		t.Fatal("NearestRoad returned a building")
	}
	if d := grid.EuclidCells(b, n); d > 1.5 {
		t.Errorf("nearest road at distance %v, expected adjacent", d)
	}
	// Street cells snap to themselves.
	s := grid.ID(geo.Cell{Row: 0, Col: 5})
	if rm.NearestRoad(s) != s {
		t.Error("street should snap to itself")
	}
}

func TestRandomWalkStaysOnRoads(t *testing.T) {
	grid := geo.MustGrid(13, 13, 1)
	rm, _ := Manhattan(grid, 4)
	rng := dp.NewRand(7)
	walk, err := rm.RandomWalk(rng, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(walk) != 200 {
		t.Fatalf("walk length %d", len(walk))
	}
	for i, c := range walk {
		if !rm.IsRoad(c) {
			t.Fatalf("step %d leaves the road: %d", i, c)
		}
		if i > 0 {
			d := rm.RoadDistance(walk[i-1], c)
			if d > 1 || d < 0 {
				t.Fatalf("step %d jumps %d road hops", i, d)
			}
		}
	}
	if _, err := rm.RandomWalk(rng, 0); err == nil {
		t.Error("zero steps should error")
	}
}

// TestGGIMechanismStaysOnNetwork is the headline property of the road-
// network policy: a PGLP mechanism bound to it never releases a building.
func TestGGIMechanismStaysOnNetwork(t *testing.T) {
	grid := geo.MustGrid(9, 9, 1)
	rm, _ := Manhattan(grid, 4)
	g := rm.PolicyGraph()
	m, err := mechanism.NewGraphExponential(grid, g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := dp.NewRand(3)
	for i := 0; i < 500; i++ {
		s := rm.RandomRoad(rng)
		z, err := m.Release(rng, s)
		if err != nil {
			t.Fatal(err)
		}
		if !rm.IsRoad(grid.Snap(z)) {
			t.Fatalf("GGI release landed on a building: %v", z)
		}
	}
}
