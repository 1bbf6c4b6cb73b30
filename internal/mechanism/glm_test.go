package mechanism

import (
	"math"
	"testing"

	"github.com/pglp/panda/internal/dp"
	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policygraph"
)

func mustGLM(t *testing.T, grid *geo.Grid, g *policygraph.Graph, eps float64) *GraphLaplace {
	t.Helper()
	m, err := NewGraphLaplace(grid, g, eps)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGLMPerComponentScale(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	// Ga-style cliques: longest intra-region distance is the 2x2 block
	// diagonal = sqrt(2).
	g := policygraph.PartitionCliques(grid, 2, 2)
	m := mustGLM(t, grid, g, 1)
	want := 1 / math.Sqrt2
	for s := 0; s < grid.NumCells(); s++ {
		if got := m.epsGeo[m.comp[s]]; math.Abs(got-want) > 1e-12 {
			t.Fatalf("scale(%d) = %v, want %v", s, got, want)
		}
	}
}

func TestGLMFinerPolicyLessNoise(t *testing.T) {
	grid := geo.MustGrid(8, 8, 1)
	coarse := policygraph.PartitionCliques(grid, 4, 4) // Ga
	fine := policygraph.PartitionCliques(grid, 2, 2)   // Gb
	mc := mustGLM(t, grid, coarse, 1)
	mf := mustGLM(t, grid, fine, 1)
	// Finer areas -> shorter max edge -> larger epsGeo -> less noise.
	if mf.epsGeo[mf.comp[0]] <= mc.epsGeo[mc.comp[0]] {
		t.Errorf("fine scale %v should exceed coarse scale %v",
			mf.epsGeo[mf.comp[0]], mc.epsGeo[mc.comp[0]])
	}
}

func TestGLMIsolatedExactDisclosure(t *testing.T) {
	grid := geo.MustGrid(3, 3, 1)
	base := policygraph.GridEightNeighbor(grid)
	infected := []int{4}
	g := policygraph.IsolateNodes(base, infected) // Gc
	m := mustGLM(t, grid, g, 1)
	rng := dp.NewRand(5)
	p, err := m.Release(rng, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p != grid.Center(4) {
		t.Errorf("infected cell released %v, want exact center", p)
	}
	if !math.IsInf(m.Likelihood(4, grid.Center(4)), 1) {
		t.Error("exact disclosure should have +Inf likelihood at the center")
	}
	if m.Likelihood(4, geo.Pt(0, 0)) != 0 {
		t.Error("exact disclosure should have 0 likelihood elsewhere")
	}
	// Healthy cells still perturb.
	q, _ := m.Release(rng, 0)
	if q == grid.Center(0) {
		t.Error("healthy cell release should (a.s.) differ from center")
	}
}

// TestGLMEdgePrivacyDensityRatio verifies the pointwise density-ratio bound
// for 1-neighbors: f(z|s)/f(z|s') ≤ e^ε for every z.
func TestGLMEdgePrivacyDensityRatio(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	g := policygraph.GridEightNeighbor(grid)
	eps := 1.1
	m := mustGLM(t, grid, g, eps)
	rng := dp.NewRand(8)
	bound := math.Exp(eps) * (1 + 1e-9)
	for trial := 0; trial < 2000; trial++ {
		z := geo.Pt(rng.Float64()*8-2, rng.Float64()*8-2)
		e := g.Edges()[rng.IntN(g.NumEdges())]
		fu, fv := m.Likelihood(e[0], z), m.Likelihood(e[1], z)
		if fu <= 0 || fv <= 0 {
			t.Fatalf("zero density at %v", z)
		}
		if fu/fv > bound || fv/fu > bound {
			t.Fatalf("edge %v at %v: ratio %v > e^ε", e, z, math.Max(fu/fv, fv/fu))
		}
	}
}

// TestGLMLemma21DensityRatio verifies ε·dG-indistinguishability for
// ∞-neighbors (Lemma 2.1) via the analytic density.
func TestGLMLemma21DensityRatio(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	g := policygraph.GridFourNeighbor(grid)
	eps := 0.8
	m := mustGLM(t, grid, g, eps)
	rng := dp.NewRand(21)
	for trial := 0; trial < 1000; trial++ {
		u, v := rng.IntN(16), rng.IntN(16)
		d := g.Distance(u, v)
		if d <= 0 {
			continue
		}
		z := geo.Pt(rng.Float64()*6-1, rng.Float64()*6-1)
		fu, fv := m.Likelihood(u, z), m.Likelihood(v, z)
		bound := math.Exp(eps*float64(d)) * (1 + 1e-9)
		if fu/fv > bound {
			t.Fatalf("pair (%d,%d) d=%d: ratio %v > e^{εd}", u, v, d, fu/fv)
		}
	}
}

func TestGLMNoEdgesAllExact(t *testing.T) {
	grid := geo.MustGrid(3, 3, 1)
	m := mustGLM(t, grid, policygraph.New(9), 2)
	rng := dp.NewRand(3)
	for s := 0; s < 9; s++ {
		p, err := m.Release(rng, s)
		if err != nil {
			t.Fatal(err)
		}
		if p != grid.Center(s) {
			t.Fatalf("edgeless policy: release(%d) = %v, want exact", s, p)
		}
	}
}

func TestGLMMeanErrorScalesWithEps(t *testing.T) {
	grid := geo.MustGrid(8, 8, 1)
	g := policygraph.GridEightNeighbor(grid)
	meanErr := func(eps float64) float64 {
		m := mustGLM(t, grid, g, eps)
		rng := dp.NewRand(17)
		var sum float64
		const n = 4000
		for i := 0; i < n; i++ {
			p, err := m.Release(rng, 27)
			if err != nil {
				t.Fatal(err)
			}
			sum += geo.Dist(p, grid.Center(27))
		}
		return sum / n
	}
	e1, e2 := meanErr(0.5), meanErr(2.0)
	// Error should shrink roughly by 4x; accept any strict ordering with margin.
	if e2 >= e1*0.5 {
		t.Errorf("mean error did not shrink with ε: ε=0.5 → %v, ε=2 → %v", e1, e2)
	}
	// Planar Laplace mean radius = 2/epsGeo with epsGeo = eps/(√2·cell).
	want := 2 / (0.5 / math.Sqrt2)
	if math.Abs(e1-want)/want > 0.1 {
		t.Errorf("mean error at ε=0.5 = %v, want ≈%v", e1, want)
	}
}
