package mechanism

import (
	"math"
	"math/rand/v2"

	"github.com/pglp/panda/internal/dp"
	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policygraph"
)

// GraphLaplace (GLM) is the planar Laplace mechanism of
// Geo-Indistinguishability re-calibrated to a location policy graph: for a
// true cell s in a component C, it adds planar Laplace noise with parameter
// ε/L_C, where L_C is the longest Euclidean edge length within C.
// Unprotected (degree-0) cells are released exactly.
//
// Privacy proof sketch. For 1-neighbors s, s' ∈ C the planar Laplace
// density ratio is at most exp(ε/L_C · d_E(s,s')) ≤ exp(ε) since every
// policy edge has d_E ≤ L_C: {ε,G}-location privacy. For ∞-neighbors at
// hop distance d, walking the shortest path gives d_E(s,s') ≤ L_C·d, so
// the ratio is at most e^{ε·d} as Lemma 2.1 requires. Pairs in different
// components carry no requirement (their release distributions may differ
// arbitrarily — including exact disclosure of isolated nodes).
//
// Calibrating per component rather than globally is policy-awareness at
// work: a policy with short edges (fine-grained indistinguishability, e.g.
// Gb) yields proportionally less noise than one with long edges (Ga).
type GraphLaplace struct {
	base
	comp     []int     // component index per node
	epsGeo   []float64 // planar-Laplace parameter per component (0 = exact release)
	maxEdge  []float64 // L_C per component
	numComps int
}

// NewGraphLaplace builds a GLM for the given grid, policy graph and ε.
func NewGraphLaplace(grid *geo.Grid, g *policygraph.Graph, eps float64) (*GraphLaplace, error) {
	b, err := newBase(grid, g, eps)
	if err != nil {
		return nil, err
	}
	comp, comps := g.ComponentIndex()
	m := &GraphLaplace{base: b, comp: comp, numComps: len(comps)}
	m.maxEdge = make([]float64, len(comps))
	m.epsGeo = make([]float64, len(comps))
	for _, e := range g.Edges() {
		ci := m.comp[e[0]]
		if d := grid.EuclidCells(e[0], e[1]); d > m.maxEdge[ci] {
			m.maxEdge[ci] = d
		}
	}
	for ci, L := range m.maxEdge {
		if L > 0 {
			m.epsGeo[ci] = eps / L
		}
	}
	return m, nil
}

// Name implements Mechanism.
func (m *GraphLaplace) Name() string { return "glm" }

// Release implements Mechanism.
func (m *GraphLaplace) Release(rng *rand.Rand, s int) (geo.Point, error) {
	if err := m.checkCell(s); err != nil {
		return geo.Point{}, err
	}
	center := m.grid.Center(s)
	epsGeo := m.epsGeo[m.comp[s]]
	if epsGeo == 0 {
		return center, nil // unprotected: exact disclosure
	}
	return center.Add(dp.PlanarLaplace(rng, epsGeo)), nil
}

// Likelihood implements Mechanism.
func (m *GraphLaplace) Likelihood(s int, z geo.Point) float64 {
	if !m.grid.InRange(s) {
		return 0
	}
	epsGeo := m.epsGeo[m.comp[s]]
	if epsGeo == 0 {
		if m.isExactPoint(s, z) {
			return math.Inf(1)
		}
		return 0
	}
	return dp.PlanarLaplaceDensity(epsGeo, geo.Dist(m.grid.Center(s), z))
}
