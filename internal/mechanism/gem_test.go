package mechanism

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/pglp/panda/internal/dp"
	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policygraph"
)

func mustGEM(t *testing.T, grid *geo.Grid, g *policygraph.Graph, eps float64) *GraphExponential {
	t.Helper()
	m, err := NewGraphExponential(grid, g, eps)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGEMValidation(t *testing.T) {
	grid := geo.MustGrid(3, 3, 1)
	g := policygraph.GridEightNeighbor(grid)
	if _, err := NewGraphExponential(nil, g, 1); err == nil {
		t.Error("nil grid should error")
	}
	if _, err := NewGraphExponential(grid, nil, 1); err == nil {
		t.Error("nil graph should error")
	}
	if _, err := NewGraphExponential(grid, policygraph.New(5), 1); err == nil {
		t.Error("universe mismatch should error")
	}
	for _, eps := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewGraphExponential(grid, g, eps); err == nil {
			t.Errorf("eps=%v should error", eps)
		}
	}
}

func TestGEMMassesSumToOne(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	g := policygraph.PartitionCliques(grid, 2, 2)
	m := mustGEM(t, grid, g, 0.7)
	for s := 0; s < grid.NumCells(); s++ {
		var sum float64
		for z := 0; z < grid.NumCells(); z++ {
			sum += m.Mass(s, z)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("masses from %d sum to %v", s, sum)
		}
	}
}

func TestGEMSupportIsComponent(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	g := policygraph.PartitionCliques(grid, 2, 2)
	m := mustGEM(t, grid, g, 1)
	comp, _ := g.ComponentIndex()
	for s := 0; s < grid.NumCells(); s++ {
		for z := 0; z < grid.NumCells(); z++ {
			mass := m.Mass(s, z)
			if comp[s] == comp[z] && mass <= 0 {
				t.Fatalf("Mass(%d,%d) = 0 within component", s, z)
			}
			if comp[s] != comp[z] && mass != 0 {
				t.Fatalf("Mass(%d,%d) = %v across components", s, z, mass)
			}
		}
	}
}

func TestGEMIsolatedNodeExact(t *testing.T) {
	grid := geo.MustGrid(3, 3, 1)
	g := policygraph.New(9) // fully unprotected policy
	g.AddEdge(0, 1)
	m := mustGEM(t, grid, g, 1)
	rng := dp.NewRand(1)
	p, err := m.Release(rng, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p != grid.Center(5) {
		t.Errorf("isolated release = %v, want exact center %v", p, grid.Center(5))
	}
	if m.Mass(5, 5) != 1 {
		t.Errorf("isolated mass = %v, want 1", m.Mass(5, 5))
	}
}

// TestGEMEdgePrivacy verifies Def. 2.4 exactly: for every policy edge
// (s, s') and every output z, Pr[A(s)=z] ≤ e^ε·Pr[A(s')=z].
func TestGEMEdgePrivacy(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	for _, build := range []func() *policygraph.Graph{
		func() *policygraph.Graph { return policygraph.GridEightNeighbor(grid) },
		func() *policygraph.Graph { return policygraph.PartitionCliques(grid, 2, 2) },
		func() *policygraph.Graph { return policygraph.Path(16) },
	} {
		g := build()
		eps := 0.9
		m := mustGEM(t, grid, g, eps)
		bound := math.Exp(eps) * (1 + 1e-9)
		for _, e := range g.Edges() {
			for z := 0; z < grid.NumCells(); z++ {
				pu, pv := m.Mass(e[0], z), m.Mass(e[1], z)
				if pu == 0 && pv == 0 {
					continue
				}
				if pu/pv > bound || pv/pu > bound {
					t.Fatalf("edge (%d,%d), z=%d: ratio %v exceeds e^ε=%v",
						e[0], e[1], z, math.Max(pu/pv, pv/pu), math.Exp(eps))
				}
			}
		}
	}
}

// TestGEMLemma21 verifies the path-composition bound of Lemma 2.1:
// any two ∞-neighbors at hop distance d are ε·d-indistinguishable.
func TestGEMLemma21(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	g := policygraph.GridEightNeighbor(grid)
	eps := 0.5
	m := mustGEM(t, grid, g, eps)
	for u := 0; u < grid.NumCells(); u++ {
		du := g.DistancesFrom(u)
		for v := 0; v < grid.NumCells(); v++ {
			if du[v] <= 0 {
				continue
			}
			bound := math.Exp(eps*float64(du[v])) * (1 + 1e-9)
			for z := 0; z < grid.NumCells(); z += 3 {
				pu, pv := m.Mass(u, z), m.Mass(v, z)
				if pv > 0 && pu/pv > bound {
					t.Fatalf("pair (%d,%d) d=%d: ratio %v > e^{εd}=%v", u, v, du[v], pu/pv, bound)
				}
			}
		}
	}
}

func TestGEMRandomGraphPrivacyProperty(t *testing.T) {
	grid := geo.MustGrid(5, 5, 1)
	f := func(seed uint64) bool {
		rng := dp.NewRand(seed)
		g := policygraph.RandomER(grid.NumCells(), 0.1, rng)
		eps := 0.3 + float64(seed%20)/10
		m, err := NewGraphExponential(grid, g, eps)
		if err != nil {
			return false
		}
		bound := math.Exp(eps) * (1 + 1e-9)
		for _, e := range g.Edges() {
			for z := 0; z < grid.NumCells(); z++ {
				pu, pv := m.Mass(e[0], z), m.Mass(e[1], z)
				if pu == 0 && pv == 0 {
					continue
				}
				if pu == 0 || pv == 0 {
					return false // support must agree within a component
				}
				if pu/pv > bound || pv/pu > bound {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestGEMSamplingMatchesMass(t *testing.T) {
	grid := geo.MustGrid(3, 3, 1)
	g := policygraph.GridEightNeighbor(grid)
	m := mustGEM(t, grid, g, 1.2)
	rng := dp.NewRand(99)
	s := 4
	const n = 60000
	counts := make(map[int]int)
	for i := 0; i < n; i++ {
		c, err := m.ReleaseCell(rng, s)
		if err != nil {
			t.Fatal(err)
		}
		counts[c]++
	}
	for z := 0; z < 9; z++ {
		want := m.Mass(s, z)
		got := float64(counts[z]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("cell %d: empirical %v vs mass %v", z, got, want)
		}
	}
}

func TestGEMLikelihoodPointConvention(t *testing.T) {
	grid := geo.MustGrid(3, 3, 1)
	g := policygraph.GridEightNeighbor(grid)
	m := mustGEM(t, grid, g, 1)
	// Exactly at a center: the mass.
	if got := m.Likelihood(4, grid.Center(0)); got != m.Mass(4, 0) {
		t.Errorf("Likelihood at center = %v, want %v", got, m.Mass(4, 0))
	}
	// Off-center points have zero likelihood for the discrete mechanism.
	if got := m.Likelihood(4, geo.Pt(0.1, 0.2)); got != 0 {
		t.Errorf("off-center likelihood = %v, want 0", got)
	}
}

func TestGEMHigherEpsConcentrates(t *testing.T) {
	grid := geo.MustGrid(5, 5, 1)
	g := policygraph.GridEightNeighbor(grid)
	s := 12
	loose := mustGEM(t, grid, g, 0.1)
	tight := mustGEM(t, grid, g, 4)
	if tight.Mass(s, s) <= loose.Mass(s, s) {
		t.Errorf("self-mass should grow with ε: %v vs %v", tight.Mass(s, s), loose.Mass(s, s))
	}
}

func TestGEMReleaseOutOfRange(t *testing.T) {
	grid := geo.MustGrid(2, 2, 1)
	m := mustGEM(t, grid, policygraph.New(4), 1)
	if _, err := m.Release(dp.NewRand(1), 7); err == nil {
		t.Error("out-of-range cell should error")
	}
	if _, err := m.Release(dp.NewRand(1), -1); err == nil {
		t.Error("negative cell should error")
	}
}
