package mechanism

import (
	"math"
	"testing"

	"github.com/pglp/panda/internal/dp"
	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policygraph"
)

// TestFactoryBuildsAllKinds: every kind builds and releases under a
// valid policy, and refuses a nil graph and an ε that is not positive
// and finite, including the baselines that ignore the graph or ε once
// built; the policy-aware kinds also refuse a graph whose size is not
// the grid's.
func TestFactoryBuildsAllKinds(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	g := policygraph.GridEightNeighbor(grid)
	for _, kind := range Kinds() {
		m, err := New(kind, grid, g, 1)
		if err != nil {
			t.Fatalf("New(%s): %v", kind, err)
		}
		if m.Name() != string(kind) {
			t.Errorf("New(%s).Name() = %s", kind, m.Name())
		}
		if _, err := m.Release(dp.NewRand(1), 0); err != nil {
			t.Errorf("Release(%s): %v", kind, err)
		}
		if _, err := New(kind, grid, nil, 1); err == nil {
			t.Errorf("New(%s) with a nil graph should error", kind)
		}
		for _, eps := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
			if _, err := New(kind, grid, g, eps); err == nil {
				t.Errorf("New(%s, ε=%v) should error", kind, eps)
			}
		}
	}
	for _, kind := range []Kind{KindGEM, KindGEME, KindGLM, KindPIM, KindKNorm} {
		if _, err := New(kind, grid, policygraph.Path(3), 1); err == nil {
			t.Errorf("New(%s) with a 3-node graph on 16 cells should error", kind)
		}
	}
	if _, err := New(Kind("bogus"), grid, g, 1); err == nil {
		t.Error("unknown kind should error")
	}
}

func TestNullMechanism(t *testing.T) {
	grid := geo.MustGrid(3, 3, 1)
	m, err := NewNull(grid)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Release(dp.NewRand(1), 4)
	if err != nil {
		t.Fatal(err)
	}
	if p != grid.Center(4) {
		t.Errorf("null release = %v", p)
	}
	if !math.IsInf(m.Likelihood(4, p), 1) {
		t.Error("null likelihood at release should be +Inf")
	}
	if m.Likelihood(3, p) != 0 {
		t.Error("null likelihood elsewhere should be 0")
	}
	if _, err := m.Release(dp.NewRand(1), 100); err == nil {
		t.Error("out-of-range should error")
	}
}

func TestGeoIndBaseline(t *testing.T) {
	grid := geo.MustGrid(4, 4, 2)
	m, err := NewGeoInd(grid, 1, 0) // unit defaults to cell size 2
	if err != nil {
		t.Fatal(err)
	}
	rng := dp.NewRand(11)
	// Mean error = 2/(eps/unit) = 4.
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		p, err := m.Release(rng, 5)
		if err != nil {
			t.Fatal(err)
		}
		sum += geo.Dist(p, grid.Center(5))
	}
	if math.Abs(sum/n-4)/4 > 0.05 {
		t.Errorf("geoind mean error = %v, want ≈4", sum/n)
	}
	// Pointwise Geo-I bound between any two cells.
	z := geo.Pt(3, 3)
	for u := 0; u < 16; u++ {
		for v := 0; v < 16; v++ {
			fu, fv := m.Likelihood(u, z), m.Likelihood(v, z)
			d := grid.EuclidCells(u, v) / 2 // in units
			if fu/fv > math.Exp(1*d)*(1+1e-9) {
				t.Fatalf("Geo-I bound violated for (%d,%d)", u, v)
			}
		}
	}
	if _, err := NewGeoInd(grid, 1, -1); err == nil {
		t.Error("negative unit should error")
	}
}
