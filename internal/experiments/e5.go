package experiments

import (
	"github.com/pglp/panda/internal/adversary"
	"github.com/pglp/panda/internal/dp"
	"github.com/pglp/panda/internal/mechanism"
	"github.com/pglp/panda/internal/policygraph"
)

// RunE5 reproduces the "Random Policy Graph" control of the demo UI
// (Fig. 5, knobs Size and Density): Erdős–Rényi policy graphs over random
// location subsets, measuring utility loss and adversary error at fixed ε.
//
// Expected shape: both utility error and adversary error grow with size
// and density — more indistinguishability constraints mean more noise for
// everyone and more confusion for the adversary; isolated (unprotected)
// locations keep both numbers down at small sizes.
func RunE5(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	grid, err := cfg.Grid()
	if err != nil {
		return nil, err
	}
	n := grid.NumCells()
	sizes := []int{n / 8, n / 4, n / 2}
	densities := []float64{0.05, 0.1, 0.3}
	eps := cfg.Epsilons[len(cfg.Epsilons)/2] // middle of the sweep
	adv, err := adversary.NewBayesian(grid, nil)
	if err != nil {
		return nil, err
	}
	table := &Table{
		ID:    "E5",
		Title: "Random policy graphs (Fig. 5 Size/Density sweep)",
		Columns: []string{
			"size", "density", "eps", "edges", "components", "isolated",
			"utility_err", "adv_err",
		},
	}
	for _, size := range sizes {
		for _, density := range densities {
			rng := dp.NewRand(cfg.Seed ^ 0xe5 ^ uint64(size*1000) ^ uint64(density*1e6))
			g := policygraph.RandomSubsetER(n, size, density, rng)
			m, err := mechanism.New(mechanism.KindGEM, grid, g, eps)
			if err != nil {
				return nil, err
			}
			util, err := mechanism.MeanError(m, grid, cfg.utilityProbe(), cfg.Seed^0x5e)
			if err != nil {
				return nil, err
			}
			rep, err := adv.ExpectedError(m, adversary.EstimatorMedoid, cfg.AdversaryRounds/2, rng)
			if err != nil {
				return nil, err
			}
			table.AddRow(size, density, eps, g.NumEdges(), len(g.Components()),
				len(g.IsolatedNodes()), util, rep.MeanError)
		}
	}
	return table, nil
}
