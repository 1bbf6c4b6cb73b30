package experiments

import (
	"math"

	"github.com/pglp/panda/internal/adversary"
	"github.com/pglp/panda/internal/dp"
	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/mechanism"
	"github.com/pglp/panda/internal/trace"
)

// RunE10 is the dataset-sensitivity sweep: the paper demonstrates on both
// Geolife (dense GPS tracks) and Gowalla (sparse, popularity-skewed
// check-ins); this experiment runs the utility and empirical-privacy
// readouts on synthetic stand-ins for both, per policy × ε (GEM).
//
// Expected shape: the check-in workload concentrates visits on few venues,
// so the adversary's prior is sharper — lower adversary error (less
// empirical privacy) at equal ε — while per-release utility error is
// workload-independent for a fixed policy (the mechanism does not look at
// the data distribution).
func RunE10(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	grid, err := cfg.Grid()
	if err != nil {
		return nil, err
	}
	geoDS, err := cfg.Dataset(grid)
	if err != nil {
		return nil, err
	}
	venues := max(grid.NumCells()/4, 1)
	gowallaDS, err := trace.GenerateGowalla(grid, trace.GowallaConfig{
		Users: cfg.Users, Steps: cfg.Steps, Venues: venues,
		ZipfS: 1.0, Favorites: min(5, venues), RevisitProb: 0.7, Seed: cfg.Seed ^ 0x10,
	})
	if err != nil {
		return nil, err
	}
	type workload struct {
		name string
		ds   *trace.Dataset
	}
	workloads := []workload{{"geolife-like", geoDS}, {"gowalla-like", gowallaDS}}
	infected := cfg.infectedCells(geoDS)
	table := &Table{
		ID:    "E10",
		Title: "Dataset sensitivity: GeoLife-like vs Gowalla-like workloads",
		Columns: []string{
			"dataset", "policy", "eps", "utility_err", "adv_err", "prior_entropy",
		},
	}
	for _, w := range workloads {
		prior := w.ds.VisitDistribution()
		adv, err := adversary.NewBayesian(grid, prior)
		if err != nil {
			return nil, err
		}
		entropy := distEntropy(prior)
		for _, pol := range cfg.policies(grid, infected)[:3] { // G1, Ga, Gb
			for _, eps := range cfg.Epsilons {
				m, err := mechanism.New(mechanism.KindGEM, grid, pol.g, eps)
				if err != nil {
					return nil, err
				}
				// Utility over the workload's own visits.
				rng := dp.NewRand(cfg.Seed ^ 0x10e ^ uint64(eps*1000) ^ hashString(w.name+pol.name))
				var sum float64
				n := 0
				for i := 0; i < cfg.utilityProbe(); i++ {
					u := rng.IntN(w.ds.NumUsers())
					t := rng.IntN(w.ds.Steps)
					truth := w.ds.Trajs[u].Cells[t]
					z, err := m.Release(rng, truth)
					if err != nil {
						return nil, err
					}
					sum += geo.Dist(z, grid.Center(truth))
					n++
				}
				rep, err := adv.ExpectedError(m, adversary.EstimatorMedoid,
					cfg.AdversaryRounds/2, rng)
				if err != nil {
					return nil, err
				}
				table.AddRow(w.name, pol.name, eps, sum/float64(n), rep.MeanError, entropy)
			}
		}
	}
	return table, nil
}

func distEntropy(p []float64) float64 {
	var h float64
	for _, v := range p {
		if v > 0 {
			h -= v * math.Log(v)
		}
	}
	return h
}
