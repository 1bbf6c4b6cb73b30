package experiments

import (
	"sort"

	"github.com/pglp/panda/internal/adversary"
	"github.com/pglp/panda/internal/dp"
	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/mechanism"
)

// RunE1 measures location-monitoring utility (§3.2 evaluation 1): the mean
// Euclidean distance between released and true locations, for every
// predefined policy graph × mechanism × ε, with and without posterior
// remap post-processing.
//
// Expected shape: error falls as ~1/ε; coarser policies (Ga) cost more
// error than finer ones (Gb) for the same ε under policy-aware
// mechanisms; Gc is close to G1 (only infected cells are disclosed);
// remap never hurts on average.
func RunE1(cfg Config) (*Table, error) {
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
	table := &Table{
		ID:    "E1",
		Title: "Location monitoring utility (mean Euclidean error, plane units)",
		Columns: []string{
			"policy", "mechanism", "eps", "err", "err_remap", "err_p90",
		},
	}
	// A fixed sample of (user, t) pairs shared across configurations.
	sampleRng := dp.NewRand(cfg.Seed ^ 0xe1)
	type ut struct{ u, t int }
	samples := make([]ut, cfg.UtilitySamples)
	for i := range samples {
		samples[i] = ut{sampleRng.IntN(ds.NumUsers()), sampleRng.IntN(ds.Steps)}
	}
	for _, pol := range cfg.policies(grid, infected) {
		for _, kind := range utilityMechanisms() {
			for _, eps := range cfg.Epsilons {
				m, err := mechanism.New(kind, grid, pol.g, eps)
				if err != nil {
					return nil, err
				}
				rng := dp.NewRand(cfg.Seed ^ uint64(eps*1000) ^ hashString(pol.name+string(kind)))
				errs := make([]float64, 0, len(samples))
				remapErrs := make([]float64, 0, len(samples))
				for _, s := range samples {
					truth := ds.Trajs[s.u].Cells[s.t]
					z, err := m.Release(rng, truth)
					if err != nil {
						return nil, err
					}
					tc := grid.Center(truth)
					errs = append(errs, geo.Dist(z, tc))
					r, err := adversary.Remap(grid, prior, m, z)
					if err != nil {
						return nil, err
					}
					remapErrs = append(remapErrs, geo.Dist(r, tc))
				}
				table.AddRow(pol.name, string(kind), eps,
					mean(errs), mean(remapErrs), quantile(errs, 0.9))
			}
		}
	}
	return table, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	idx := int(q * float64(len(cp)-1))
	return cp[idx]
}

func hashString(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
