package mechanism

import (
	"math"
	"math/rand/v2"
	"sort"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policygraph"
)

// GraphEuclidExponential (GEME) is a utility-tuned variant of the graph
// exponential mechanism: like GEM it samples a cell from the ∞-neighbor
// component of the true location, but it scores candidates by *Euclidean*
// distance, with mass ∝ exp(-ε·d_E(s,z)/(2·L_C)) where L_C is the longest
// policy edge in the component.
//
// Privacy proof sketch. For 1-neighbors s, s' in component C:
// |d_E(s,z) − d_E(s',z)| ≤ d_E(s,s') ≤ L_C (triangle inequality and the
// definition of L_C), so numerators are within exp(ε/2) and normalizers
// within exp(ε/2), giving Pr[A(s)=z]/Pr[A(s')=z] ≤ e^ε: {ε,G}-location
// privacy. For ∞-neighbors at hop distance d, d_E(s,s') ≤ L_C·d along the
// policy path, so ratios stay within e^{ε·d} (Lemma 2.1).
//
// Compared to GEM, GEME concentrates releases near the true location when
// the component is a clique of nearby cells (Ga/Gb partition policies,
// where graph distance is uninformative — every pair is one hop), buying
// utility at identical policy compliance. The E1 sweep quantifies this.
type GraphEuclidExponential struct {
	base
	comp    []int
	members [][]int
	mass    [][]float64
	cum     [][]float64
}

// NewGraphEuclidExponential builds a GEME for the grid, policy graph and ε.
func NewGraphEuclidExponential(grid *geo.Grid, g *policygraph.Graph, eps float64) (*GraphEuclidExponential, error) {
	b, err := newBase(grid, g, eps)
	if err != nil {
		return nil, err
	}
	comp, comps := g.ComponentIndex()
	m := &GraphEuclidExponential{base: b, comp: comp, members: comps}
	// Longest policy edge per component.
	maxEdge := make([]float64, len(comps))
	for _, e := range g.Edges() {
		ci := m.comp[e[0]]
		if d := grid.EuclidCells(e[0], e[1]); d > maxEdge[ci] {
			maxEdge[ci] = d
		}
	}
	n := g.NumNodes()
	m.mass = make([][]float64, n)
	m.cum = make([][]float64, n)
	for ci, comp := range comps {
		if len(comp) == 1 {
			s := comp[0]
			m.mass[s] = []float64{1}
			m.cum[s] = []float64{1}
			continue
		}
		scale := eps / (2 * maxEdge[ci])
		for _, s := range comp {
			cs := grid.Center(s)
			w := make([]float64, len(comp))
			var z float64
			for k, c := range comp {
				w[k] = math.Exp(-scale * geo.Dist(cs, grid.Center(c)))
				z += w[k]
			}
			cum := make([]float64, len(comp))
			var acc float64
			for k := range w {
				w[k] /= z
				acc += w[k]
				cum[k] = acc
			}
			cum[len(cum)-1] = 1
			m.mass[s] = w
			m.cum[s] = cum
		}
	}
	return m, nil
}

// Name implements Mechanism.
func (m *GraphEuclidExponential) Name() string { return "geme" }

// Release implements Mechanism.
func (m *GraphEuclidExponential) Release(rng *rand.Rand, s int) (geo.Point, error) {
	if err := m.checkCell(s); err != nil {
		return geo.Point{}, err
	}
	cell, err := m.ReleaseCell(rng, s)
	if err != nil {
		return geo.Point{}, err
	}
	return m.grid.Center(cell), nil
}

// ReleaseCell samples the released cell directly.
func (m *GraphEuclidExponential) ReleaseCell(rng *rand.Rand, s int) (int, error) {
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

// Mass returns the exact release probability Pr[z | s].
func (m *GraphEuclidExponential) Mass(s, z int) float64 {
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

// Likelihood implements Mechanism.
func (m *GraphEuclidExponential) Likelihood(s int, z geo.Point) float64 {
	if !m.grid.InRange(s) {
		return 0
	}
	c := m.grid.Snap(z)
	if !m.isExactPoint(c, z) {
		return 0
	}
	return m.Mass(s, c)
}
