package mechanism

import (
	"math"
	"math/rand/v2"
	"sort"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policygraph"
)

// GraphExponential is the graph exponential mechanism (GEM): given true
// cell s it samples a cell z from the ∞-neighbor component of s with
// probability proportional to exp(-ε·dG(s,z)/2) and releases the center
// of z. Unprotected (degree-0) cells are released exactly.
//
// Privacy proof sketch. For 1-neighbors s, s' (same component):
// numerators satisfy exp(-ε·dG(s,z)/2) ≤ exp(ε/2)·exp(-ε·dG(s',z)/2)
// because |dG(s,z) − dG(s',z)| ≤ dG(s,s') = 1 (triangle inequality), and
// the normalizing constants satisfy the same factor-exp(ε/2) bound
// term-by-term, so Pr[A(s)=z] / Pr[A(s')=z] ≤ e^ε: {ε,G}-location privacy
// (Def. 2.4). By induction the released-value ratio between any two
// ∞-neighbors at hop distance d is at most e^{ε·d} (Lemma 2.1).
type GraphExponential struct {
	base
	comp    []int       // component index of each node
	members [][]int     // nodes of each component, sorted
	mass    [][]float64 // mass[s][k] = Pr[release members[comp[s]][k] | s]
	cum     [][]float64 // per-source cumulative masses, aligned with members
}

// NewGraphExponential builds a GEM for the given grid, policy graph and ε.
// All release distributions are precomputed (O(Σ|C|²) over components C).
func NewGraphExponential(grid *geo.Grid, g *policygraph.Graph, eps float64) (*GraphExponential, error) {
	b, err := newBase(grid, g, eps)
	if err != nil {
		return nil, err
	}
	comp, comps := g.ComponentIndex()
	m := &GraphExponential{base: b, comp: comp, members: comps}
	n := g.NumNodes()
	m.mass = make([][]float64, n)
	m.cum = make([][]float64, n)
	for _, comp := range comps {
		if len(comp) == 1 {
			s := comp[0]
			m.mass[s] = []float64{1}
			m.cum[s] = []float64{1}
			continue
		}
		for _, s := range comp {
			dist := g.DistancesFrom(s)
			w := make([]float64, len(comp))
			var z float64
			for k, c := range comp {
				w[k] = math.Exp(-eps / 2 * float64(dist[c]))
				z += w[k]
			}
			cum := make([]float64, len(comp))
			var acc float64
			for k := range w {
				w[k] /= z
				acc += w[k]
				cum[k] = acc
			}
			cum[len(cum)-1] = 1 // guard against rounding
			m.mass[s] = w
			m.cum[s] = cum
		}
	}
	return m, nil
}

// Name implements Mechanism.
func (m *GraphExponential) Name() string { return "gem" }

// Release implements Mechanism.
func (m *GraphExponential) Release(rng *rand.Rand, s int) (geo.Point, error) {
	if err := m.checkCell(s); err != nil {
		return geo.Point{}, err
	}
	cell, err := m.ReleaseCell(rng, s)
	if err != nil {
		return geo.Point{}, err
	}
	return m.grid.Center(cell), nil
}

// ReleaseCell samples the released cell directly (the discrete output of
// the mechanism before mapping to plane coordinates).
func (m *GraphExponential) ReleaseCell(rng *rand.Rand, s int) (int, error) {
	if err := m.checkCell(s); err != nil {
		return 0, err
	}
	cum := m.cum[s]
	u := rng.Float64()
	k := sort.SearchFloat64s(cum, u)
	if k >= len(cum) {
		k = len(cum) - 1
	}
	return m.members[m.comp[s]][k], nil
}

// Mass returns the exact probability Pr[released cell = z | true cell = s].
func (m *GraphExponential) Mass(s, z int) float64 {
	if !m.grid.InRange(s) || !m.grid.InRange(z) {
		return 0
	}
	ci := m.comp[s]
	if m.comp[z] != ci {
		return 0
	}
	members := m.members[ci]
	k := sort.SearchInts(members, z)
	if k >= len(members) || members[k] != z {
		return 0
	}
	return m.mass[s][k]
}

// Likelihood implements Mechanism. GEM outputs are exactly cell centers,
// so the likelihood of a point is the mass of the matching cell (0 if z is
// not a cell center).
func (m *GraphExponential) Likelihood(s int, z geo.Point) float64 {
	if !m.grid.InRange(s) {
		return 0
	}
	c := m.grid.Snap(z)
	if !m.isExactPoint(c, z) {
		return 0
	}
	return m.Mass(s, c)
}
