package experiments

import (
	"math"

	"github.com/pglp/panda/internal/epidemic"
	"github.com/pglp/panda/internal/mechanism"
)

// RunE2 measures epidemic-analysis utility (§3.2 evaluation 1, second
// part): "the accuracy of transmission model estimation using the
// difference between R0 estimated over accurate locations and the
// perturbed locations". The health authority estimates the contact rate c
// from observed (perturbed) locations and forms R0 = c·p·D with known
// transmission probability p and infectious duration D. The experiment
// reports R0 from true data, R0 from perturbed data, and the error, per
// policy × ε; the outbreak's ground-truth R0 (from the transmission tree)
// anchors the scale.
//
// Expected shape: coarse partition policies (Ga) distort co-location
// counting the most; finer policies (Gb) and Gc track the true R0 closely
// as ε grows.
func RunE2(cfg Config) (*Table, error) {
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
	seeds := make([]int, cfg.SeedCases)
	for i := range seeds {
		seeds[i] = i
	}
	outbreak, err := epidemic.SimulateOutbreak(ds, epidemic.OutbreakConfig{
		Seeds: seeds, TransmissionProb: cfg.TransmissionProb,
		ExposedSteps: cfg.ExposedSteps, InfectiousSteps: cfg.InfectiousSteps,
		Seed: cfg.Seed ^ 0xe2,
	})
	if err != nil {
		return nil, err
	}
	r0True, err := epidemic.EstimateR0Contacts(ds, cfg.TransmissionProb, cfg.InfectiousSteps)
	if err != nil {
		return nil, err
	}
	r0Empirical := outbreak.EmpiricalR0()
	infected := cfg.infectedCells(ds)
	table := &Table{
		ID:    "E2",
		Title: "Epidemic analysis: R0 estimation from perturbed locations",
		Columns: []string{
			"policy", "mechanism", "eps", "r0_true", "r0_perturbed", "abs_err", "rel_err", "r0_outbreak",
		},
	}
	for _, pol := range cfg.policies(grid, infected) {
		for _, kind := range []mechanism.Kind{mechanism.KindGEM, mechanism.KindGLM} {
			for _, eps := range cfg.Epsilons {
				m, err := mechanism.New(kind, grid, pol.g, eps)
				if err != nil {
					return nil, err
				}
				perturbed, err := ds.Perturb(m.Release, cfg.Seed^uint64(eps*997))
				if err != nil {
					return nil, err
				}
				r0Pert, err := epidemic.EstimateR0Contacts(perturbed, cfg.TransmissionProb, cfg.InfectiousSteps)
				if err != nil {
					return nil, err
				}
				absErr := math.Abs(r0Pert - r0True)
				relErr := absErr / math.Max(r0True, 1e-12)
				table.AddRow(pol.name, string(kind), eps, r0True, r0Pert, absErr, relErr, r0Empirical)
			}
		}
	}
	return table, nil
}
