package experiments

import (
	"math"

	"github.com/pglp/panda/internal/dp"
	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/mechanism"
	"github.com/pglp/panda/internal/policygraph"
)

// RunE8 is the Lemma 2.1 ablation: for each mechanism family it measures
// how much of the allowed ε·d indistinguishability budget is actually used
// at each hop distance d ("utilisation" = max observed likelihood ratio ÷
// e^{εd}). A tight mechanism uses its budget at d=1 and decays no faster
// than required; values above 1 would be privacy violations.
func RunE8(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	grid, err := cfg.Grid()
	if err != nil {
		return nil, err
	}
	g := policygraph.GridFourNeighbor(grid)
	eps := cfg.Epsilons[len(cfg.Epsilons)/2]
	table := &Table{
		ID:      "E8",
		Title:   "Lemma 2.1 ablation: budget utilisation by hop distance",
		Columns: []string{"mechanism", "eps", "hops", "max_ratio", "bound", "utilisation"},
	}
	maxHops := 5
	for _, kind := range []mechanism.Kind{mechanism.KindGEM, mechanism.KindGLM, mechanism.KindPIM} {
		m, err := mechanism.New(kind, grid, g, eps)
		if err != nil {
			return nil, err
		}
		rng := dp.NewRand(cfg.Seed ^ 0xe8 ^ hashString(string(kind)))
		maxRatio := make([]float64, maxHops+1)
		// Sample node pairs at each hop distance and probe outputs.
		for tries := 0; tries < 4000; tries++ {
			u := rng.IntN(grid.NumCells())
			v := rng.IntN(grid.NumCells())
			d := g.Distance(u, v)
			if d < 1 || d > maxHops {
				continue
			}
			for probe := 0; probe < 6; probe++ {
				var z geo.Point
				if probe == 0 {
					z = grid.Center(u)
				} else if probe == 1 {
					z = grid.Center(v)
				} else {
					z = grid.Center(u).Add(geo.Pt(
						rng.Float64()*4*grid.CellSize-2*grid.CellSize,
						rng.Float64()*4*grid.CellSize-2*grid.CellSize))
				}
				fu, fv := m.Likelihood(u, z), m.Likelihood(v, z)
				if fu <= 0 || fv <= 0 || math.IsInf(fu, 1) || math.IsInf(fv, 1) {
					continue
				}
				r := math.Max(fu/fv, fv/fu)
				if r > maxRatio[d] {
					maxRatio[d] = r
				}
			}
		}
		for d := 1; d <= maxHops; d++ {
			bound := math.Exp(eps * float64(d))
			table.AddRow(string(kind), eps, d, maxRatio[d], bound, maxRatio[d]/bound)
		}
	}
	return table, nil
}
