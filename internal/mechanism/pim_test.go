package mechanism

import (
	"math"
	"testing"

	"github.com/pglp/panda/internal/dp"
	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policygraph"
)

func mustPIM(t *testing.T, grid *geo.Grid, g *policygraph.Graph, eps float64, iso bool) *PIM {
	t.Helper()
	m, err := NewPIM(grid, g, eps, iso)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPIMSensitivityHullContainsEdges(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	g := policygraph.GridEightNeighbor(grid)
	m := mustPIM(t, grid, g, 1, true)
	for _, e := range g.Edges() {
		d := grid.Center(e[0]).Sub(grid.Center(e[1]))
		body := m.bodies[m.comp[e[0]]]
		if body == nil {
			t.Fatalf("no hull for connected node %d", e[0])
		}
		if gauge := geo.GaugeNorm(body.hull, d); gauge > 1+1e-9 {
			t.Fatalf("edge %v difference has gauge %v > 1", e, gauge)
		}
	}
}

// TestPIMEdgePrivacyDensityRatio verifies the K-norm guarantee for policy
// edges: f(z|u)/f(z|v) = exp(-ε(‖T(z-u)‖-‖T(z-v)‖)) ≤ exp(ε‖u-v‖_K) ≤ e^ε.
func TestPIMEdgePrivacyDensityRatio(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	for _, iso := range []bool{true, false} {
		g := policygraph.GridEightNeighbor(grid)
		eps := 1.3
		m := mustPIM(t, grid, g, eps, iso)
		rng := dp.NewRand(31)
		bound := math.Exp(eps) * (1 + 1e-6)
		for trial := 0; trial < 2000; trial++ {
			z := geo.Pt(rng.Float64()*10-3, rng.Float64()*10-3)
			e := g.Edges()[rng.IntN(g.NumEdges())]
			fu, fv := m.Likelihood(e[0], z), m.Likelihood(e[1], z)
			if fu <= 0 || fv <= 0 {
				t.Fatalf("zero density at %v (iso=%v)", z, iso)
			}
			if fu/fv > bound || fv/fu > bound {
				t.Fatalf("iso=%v edge %v at %v: ratio %v > e^ε", iso, e, z, math.Max(fu/fv, fv/fu))
			}
		}
	}
}

func TestPIMLemma21(t *testing.T) {
	grid := geo.MustGrid(3, 3, 1)
	g := policygraph.GridFourNeighbor(grid)
	eps := 0.7
	m := mustPIM(t, grid, g, eps, true)
	rng := dp.NewRand(13)
	for trial := 0; trial < 800; trial++ {
		u, v := rng.IntN(9), rng.IntN(9)
		d := g.Distance(u, v)
		if d <= 0 {
			continue
		}
		z := geo.Pt(rng.Float64()*5-1, rng.Float64()*5-1)
		fu, fv := m.Likelihood(u, z), m.Likelihood(v, z)
		bound := math.Exp(eps*float64(d)) * (1 + 1e-6)
		if fv > 0 && fu/fv > bound {
			t.Fatalf("pair (%d,%d) d=%d: ratio %v > e^{εd}", u, v, d, fu/fv)
		}
	}
}

func TestPIMIsolatedExact(t *testing.T) {
	grid := geo.MustGrid(3, 3, 1)
	g := policygraph.IsolateNodes(policygraph.GridEightNeighbor(grid), []int{4})
	m := mustPIM(t, grid, g, 1, true)
	p, err := m.Release(dp.NewRand(2), 4)
	if err != nil {
		t.Fatal(err)
	}
	if p != grid.Center(4) {
		t.Errorf("isolated release = %v, want exact", p)
	}
	if m.bodies[m.comp[4]] != nil {
		t.Error("isolated node should have no hull")
	}
	if !math.IsInf(m.Likelihood(4, grid.Center(4)), 1) {
		t.Error("isolated likelihood at center should be +Inf")
	}
}

func TestPIMDegenerateCollinearPolicy(t *testing.T) {
	// A path policy along one row: all edge vectors collinear. The inflated
	// hull must still protect edges and sampling must work.
	grid := geo.MustGrid(1, 6, 1)
	g := policygraph.Path(6)
	eps := 1.0
	m := mustPIM(t, grid, g, eps, true)
	body := m.bodies[m.comp[0]]
	if body == nil || geo.PolygonArea(body.hull) <= 0 {
		t.Fatalf("degenerate hull not inflated: %v", body)
	}
	hull := body.hull
	for _, e := range g.Edges() {
		d := grid.Center(e[0]).Sub(grid.Center(e[1]))
		if gauge := geo.GaugeNorm(hull, d); gauge > 1+1e-9 {
			t.Fatalf("edge %v gauge %v > 1 after inflation", e, gauge)
		}
	}
	rng := dp.NewRand(77)
	for i := 0; i < 200; i++ {
		p, err := m.Release(rng, 3)
		if err != nil {
			t.Fatal(err)
		}
		// Noise should be essentially along the row (y ≈ const).
		if math.Abs(p.Y-0.5) > 1 {
			t.Fatalf("perpendicular noise too large: %v", p)
		}
	}
}

func TestPIMGaugeDistanceMean(t *testing.T) {
	// For the K-norm mechanism, E[‖z-s‖_K] = E[Gamma(3,1/ε)]·E[‖U‖_K]
	// = (3/ε)·(2/3) = 2/ε.
	grid := geo.MustGrid(5, 5, 1)
	g := policygraph.GridEightNeighbor(grid)
	eps := 0.8
	m := mustPIM(t, grid, g, eps, false)
	rng := dp.NewRand(6)
	const n = 30000
	var sum float64
	for i := 0; i < n; i++ {
		z, err := m.Release(rng, 12)
		if err != nil {
			t.Fatal(err)
		}
		body := m.bodies[m.comp[12]]
		sum += geo.GaugeNorm(body.hullT, body.t.Apply(z.Sub(grid.Center(12))))
	}
	want := 2 / eps
	if math.Abs(sum/n-want)/want > 0.05 {
		t.Errorf("mean gauge = %v, want ≈%v", sum/n, want)
	}
}

func TestPIMIsotropicIsDistributionNeutral(t *testing.T) {
	// An elongated policy: a two-row strip where horizontal neighbors are
	// far apart. The gauge is invariant under the isotropic transform
	// (‖T(x)‖_{T·K} = ‖x‖_K), so both variants must have the SAME release
	// distribution — mean errors agree within Monte-Carlo tolerance.
	grid := geo.MustGrid(2, 12, 1)
	g := policygraph.New(24)
	// Connect far-apart horizontal pairs to elongate the hull.
	for c := 0; c+6 < 12; c++ {
		g.AddEdge(c, c+6)
		g.AddEdge(12+c, 12+c+6)
	}
	// Tie the rows together weakly.
	g.AddEdge(0, 12)
	eps := 1.0
	meanErr := func(iso bool) float64 {
		m := mustPIM(t, grid, g, eps, iso)
		rng := dp.NewRand(123)
		var sum float64
		const n = 8000
		for i := 0; i < n; i++ {
			z, err := m.Release(rng, 0)
			if err != nil {
				t.Fatal(err)
			}
			sum += geo.Dist(z, grid.Center(0))
		}
		return sum / n
	}
	iso, noIso := meanErr(true), meanErr(false)
	if math.Abs(iso-noIso)/noIso > 0.05 {
		t.Errorf("isotropic transform changed the distribution: iso=%v vs knorm=%v", iso, noIso)
	}
}

func TestPIMDensityNormalization(t *testing.T) {
	// ∫ f(z|s) dz ≈ 1 by coarse quadrature.
	grid := geo.MustGrid(3, 3, 1)
	g := policygraph.GridEightNeighbor(grid)
	m := mustPIM(t, grid, g, 1.5, true)
	s := 4
	var integral float64
	d := 0.05
	for x := -15.0; x < 18; x += d {
		for y := -15.0; y < 18; y += d {
			integral += m.Likelihood(s, geo.Pt(x, y)) * d * d
		}
	}
	if math.Abs(integral-1) > 0.02 {
		t.Errorf("∫density = %v, want ≈1", integral)
	}
}

func TestPIMNames(t *testing.T) {
	grid := geo.MustGrid(2, 2, 1)
	g := policygraph.Complete(4, nil)
	if m := mustPIM(t, grid, g, 1, true); m.Name() != "pim" || !m.isotropic {
		t.Error("isotropic PIM misnamed")
	}
	if m := mustPIM(t, grid, g, 1, false); m.Name() != "knorm" || m.isotropic {
		t.Error("knorm misnamed")
	}
}
