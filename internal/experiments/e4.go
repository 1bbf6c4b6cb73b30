package experiments

import (
	"github.com/pglp/panda/internal/adversary"
	"github.com/pglp/panda/internal/dp"
	"github.com/pglp/panda/internal/mechanism"
)

// RunE4 measures empirical privacy (§3.2 evaluation 3): the expected
// inference error of a Bayesian adversary (Shokri et al.) whose prior is
// the population visit distribution, per policy × mechanism × ε; the
// matching utility error is reported alongside, tracing the
// privacy–utility frontier the demo visualises.
//
// Expected shape: adversary error grows as ε shrinks and as the policy
// graph gets denser/coarser; under Gc the disclosed (infected) cells give
// the adversary exact hits, lowering mean error — privacy is traded
// exactly where the policy says so.
func RunE4(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	grid, err := cfg.Grid()
	if err != nil {
		return nil, err
	}
	ds, err := cfg.Dataset(grid)
	if err != nil {
		return nil, err
	}
	prior := ds.VisitDistribution()
	infected := cfg.infectedCells(ds)
	adv, err := adversary.NewBayesian(grid, prior)
	if err != nil {
		return nil, err
	}
	table := &Table{
		ID:    "E4",
		Title: "Empirical privacy: Bayesian adversary expected error (and utility)",
		Columns: []string{
			"policy", "mechanism", "eps", "adv_err", "hit_rate", "utility_err",
		},
	}
	for _, pol := range cfg.policies(grid, infected) {
		for _, kind := range []mechanism.Kind{mechanism.KindGEM, mechanism.KindGLM, mechanism.KindPIM} {
			for _, eps := range cfg.Epsilons {
				m, err := mechanism.New(kind, grid, pol.g, eps)
				if err != nil {
					return nil, err
				}
				rng := dp.NewRand(cfg.Seed ^ 0xe4 ^ uint64(eps*1000) ^ hashString(pol.name+string(kind)))
				rep, err := adv.ExpectedError(m, adversary.EstimatorMedoid, cfg.AdversaryRounds, rng)
				if err != nil {
					return nil, err
				}
				// Matching utility on the same mechanism.
				util, err := mechanism.MeanError(m, grid, cfg.utilityProbe(), cfg.Seed^0x4e)
				if err != nil {
					return nil, err
				}
				table.AddRow(pol.name, string(kind), eps, rep.MeanError, rep.HitRate, util)
			}
		}
	}
	return table, nil
}
