package mechanism

import (
	"testing"

	"github.com/pglp/panda/internal/dp"
	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policygraph"
)

func TestLikelihoodOutOfRangeIsZero(t *testing.T) {
	grid := geo.MustGrid(3, 3, 1)
	g := policygraph.GridEightNeighbor(grid)
	mechs := []Mechanism{}
	for _, kind := range Kinds() {
		m, err := New(kind, grid, g, 1)
		if err != nil {
			t.Fatal(err)
		}
		mechs = append(mechs, m)
	}
	for _, m := range mechs {
		if l := m.Likelihood(-1, geo.Pt(0, 0)); l != 0 {
			t.Errorf("%s: Likelihood(-1) = %v", m.Name(), l)
		}
		if l := m.Likelihood(99, geo.Pt(0, 0)); l != 0 {
			t.Errorf("%s: Likelihood(99) = %v", m.Name(), l)
		}
	}
}

func TestAllMechanismsRejectOutOfRangeRelease(t *testing.T) {
	grid := geo.MustGrid(3, 3, 1)
	g := policygraph.GridEightNeighbor(grid)
	rng := dp.NewRand(1)
	for _, kind := range Kinds() {
		m, err := New(kind, grid, g, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Release(rng, -1); err == nil {
			t.Errorf("%s accepted cell -1", kind)
		}
		if _, err := m.Release(rng, 9); err == nil {
			t.Errorf("%s accepted cell 9", kind)
		}
	}
}

func TestMassOutOfRange(t *testing.T) {
	grid := geo.MustGrid(3, 3, 1)
	g := policygraph.GridEightNeighbor(grid)
	gem, _ := NewGraphExponential(grid, g, 1)
	geme, _ := NewGraphEuclidExponential(grid, g, 1)
	if gem.Mass(-1, 0) != 0 || gem.Mass(0, 99) != 0 {
		t.Error("GEM out-of-range mass should be 0")
	}
	if geme.Mass(-1, 0) != 0 || geme.Mass(0, 99) != 0 {
		t.Error("GEME out-of-range mass should be 0")
	}
}

func TestInflateDegenerateOriginOnly(t *testing.T) {
	hull := inflateDegenerate([]geo.Point{{X: 0, Y: 0}})
	if geo.PolygonArea(hull) <= 0 {
		t.Error("origin-only hull should inflate to positive area")
	}
}

func TestBaseAccessors(t *testing.T) {
	grid := geo.MustGrid(3, 3, 1)
	g := policygraph.GridEightNeighbor(grid)
	m, _ := NewGraphExponential(grid, g, 1.5)
	if m.Epsilon() != 1.5 {
		t.Errorf("Epsilon = %v", m.Epsilon())
	}
}
