package panda

import (
	"fmt"

	"github.com/pglp/panda/internal/adversary"
	"github.com/pglp/panda/internal/contact"
	"github.com/pglp/panda/internal/dp"
	"github.com/pglp/panda/internal/epidemic"
	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/mechanism"
	"github.com/pglp/panda/internal/policygraph"
	"github.com/pglp/panda/internal/trace"
)

// This file exposes the simulation-facing surface of the toolkit: synthetic
// mobility workloads, agent-based outbreaks, R0 estimation, the contact-
// tracing protocol, and privacy/utility measurement — everything the
// paper's demo lets an attendee drive, as plain functions.

// TraceDataset is a population of ground-truth trajectories on a grid.
type TraceDataset struct {
	ds *trace.Dataset
}

// GenerateTraces produces a GeoLife-like synthetic workload (dense
// random-waypoint movement with home anchoring). It stands in for the
// paper's Geolife dataset, which is an external download.
func GenerateTraces(o Options, users, steps int, seed uint64) (*TraceDataset, error) {
	grid, err := geo.NewGrid(o.Rows, o.Cols, o.CellSize)
	if err != nil {
		return nil, err
	}
	ds, err := trace.GenerateGeoLife(grid, trace.GeoLifeConfig{
		Users: users, Steps: steps, Seed: seed,
		Speed: 2, PauseProb: 0.3, HomeBias: 0.4,
	})
	if err != nil {
		return nil, err
	}
	return &TraceDataset{ds: ds}, nil
}

// GenerateCheckins produces a Gowalla-like sparse check-in workload
// (Zipf venue popularity, habitual revisits).
func GenerateCheckins(o Options, users, steps int, seed uint64) (*TraceDataset, error) {
	grid, err := geo.NewGrid(o.Rows, o.Cols, o.CellSize)
	if err != nil {
		return nil, err
	}
	venues := grid.NumCells() / 4
	if venues < 1 {
		venues = 1
	}
	favorites := 5
	if favorites > venues {
		favorites = venues
	}
	ds, err := trace.GenerateGowalla(grid, trace.GowallaConfig{
		Users: users, Steps: steps, Venues: venues,
		ZipfS: 1.0, Favorites: favorites, RevisitProb: 0.7, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return &TraceDataset{ds: ds}, nil
}

// NumUsers returns the number of trajectories.
func (d *TraceDataset) NumUsers() int { return d.ds.NumUsers() }

// Steps returns the horizon length.
func (d *TraceDataset) Steps() int { return d.ds.Steps }

// Cells returns a copy of one user's trajectory (nil if unknown).
func (d *TraceDataset) Cells(user int) []int {
	tr := d.ds.ByUser(user)
	if tr == nil {
		return nil
	}
	out := make([]int, len(tr.Cells))
	copy(out, tr.Cells)
	return out
}

// Perturb releases every location of the dataset through a PGLP mechanism
// and returns the snapped result — the dataset the server would observe.
func (d *TraceDataset) Perturb(pg *PolicyGraph, eps float64, kind MechanismKind, seed uint64) (*TraceDataset, error) {
	m, err := mechanism.New(mechanism.Kind(kind), d.ds.Grid, pg.g, eps)
	if err != nil {
		return nil, err
	}
	out, err := d.ds.Perturb(m.Release, seed)
	if err != nil {
		return nil, err
	}
	return &TraceDataset{ds: out}, nil
}

// OutbreakResult summarises an agent-based epidemic over a dataset.
type OutbreakResult struct {
	// TotalInfected counts users who ever caught the disease.
	TotalInfected int
	// EmpiricalR0 is the mean secondary cases of early infections.
	EmpiricalR0 float64
	// Incidence is new infections per timestep.
	Incidence []int
	// InfectedUsers lists users who were infected, in user-ID order.
	InfectedUsers []int
}

// SimulateOutbreak spreads an SEIR infection over the trajectories via
// co-location transmission.
func (d *TraceDataset) SimulateOutbreak(seeds []int, transmissionProb float64, exposedSteps, infectiousSteps int, seed uint64) (*OutbreakResult, error) {
	o, err := epidemic.SimulateOutbreak(d.ds, epidemic.OutbreakConfig{
		Seeds: seeds, TransmissionProb: transmissionProb,
		ExposedSteps: exposedSteps, InfectiousSteps: infectiousSteps, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	res := &OutbreakResult{
		TotalInfected: o.TotalInfected(),
		EmpiricalR0:   o.EmpiricalR0(),
		Incidence:     o.Incidence,
	}
	for u, at := range o.InfectedAt {
		if at >= 0 {
			res.InfectedUsers = append(res.InfectedUsers, d.ds.Trajs[u].User)
		}
	}
	return res, nil
}

// EstimateR0 estimates the basic reproduction number from the dataset's
// co-location structure as contact-rate × transmissionProb × infectious
// duration. Run it on true and on perturbed data to reproduce the paper's
// epidemic-analysis accuracy evaluation.
func (d *TraceDataset) EstimateR0(transmissionProb float64, infectiousSteps int) (float64, error) {
	return epidemic.EstimateR0Contacts(d.ds, transmissionProb, infectiousSteps)
}

// ContactResult reports a contact-tracing run.
type ContactResult struct {
	Flagged       []int
	Truth         []int
	InfectedCells []int
	Precision     float64
	Recall        float64
	F1            float64
}

// TraceContacts runs the paper's dynamic-policy contact-tracing protocol:
// the patients' visited places become disclosable (Gc), every other user
// re-sends their recent history under the updated policy, and users with
// at least minCoLocations exact matches against a patient are flagged.
func (d *TraceDataset) TraceContacts(base *PolicyGraph, patients []int, eps float64, kind MechanismKind, minCoLocations, window int, seed uint64) (*ContactResult, error) {
	res, err := contact.Trace(d.ds, base.g, patients, contact.Config{
		Epsilon: eps, Kind: mechanism.Kind(kind),
		MinCoLocations: minCoLocations, Window: window, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return &ContactResult{
		Flagged: res.Flagged, Truth: res.Truth, InfectedCells: res.InfectedCells,
		Precision: res.Precision(), Recall: res.Recall(), F1: res.F1(),
	}, nil
}

// RandomPolicy builds the demo's "Random Policy Graph" (Fig. 5): `size`
// random locations, each pair connected with probability `density`; all
// other locations stay disclosable.
func RandomPolicy(o Options, size int, density float64, seed uint64) (*PolicyGraph, error) {
	grid, err := geo.NewGrid(o.Rows, o.Cols, o.CellSize)
	if err != nil {
		return nil, err
	}
	if size < 0 || !(density >= 0 && density <= 1) { // NaN fails both
		return nil, fmt.Errorf("panda: invalid random policy size %d density %v", size, density)
	}
	g := policygraph.RandomSubsetER(grid.NumCells(), size, density, dp.NewRand(seed))
	return &PolicyGraph{g: g}, nil
}

// MeasureUtility returns the mean Euclidean error of releases from
// uniformly random true cells under the policy/mechanism — the demo's
// utility readout.
func MeasureUtility(o Options, pg *PolicyGraph, eps float64, kind MechanismKind, samples int, seed uint64) (float64, error) {
	grid, err := geo.NewGrid(o.Rows, o.Cols, o.CellSize)
	if err != nil {
		return 0, err
	}
	m, err := mechanism.New(mechanism.Kind(kind), grid, pg.g, eps)
	if err != nil {
		return 0, err
	}
	return mechanism.MeanError(m, grid, samples, seed)
}

// MeasurePrivacyWithPrior is MeasurePrivacy with an explicit adversary
// prior over cells (length Rows*Cols; zero-mass cells are never true
// locations). Use it when the location universe is restricted — e.g. a
// road network, where buildings must carry no prior mass.
func MeasurePrivacyWithPrior(o Options, pg *PolicyGraph, eps float64, kind MechanismKind, prior []float64, rounds int, seed uint64) (float64, error) {
	grid, err := geo.NewGrid(o.Rows, o.Cols, o.CellSize)
	if err != nil {
		return 0, err
	}
	m, err := mechanism.New(mechanism.Kind(kind), grid, pg.g, eps)
	if err != nil {
		return 0, err
	}
	adv, err := adversary.NewBayesian(grid, prior)
	if err != nil {
		return 0, err
	}
	rep, err := adv.ExpectedError(m, adversary.EstimatorMedoid, rounds, dp.NewRand(seed))
	if err != nil {
		return 0, err
	}
	return rep.MeanError, nil
}

// MeasurePrivacy returns the Bayesian adversary's expected inference error
// against the policy/mechanism with a uniform prior — the demo's empirical
// privacy readout (higher = more private).
func MeasurePrivacy(o Options, pg *PolicyGraph, eps float64, kind MechanismKind, rounds int, seed uint64) (float64, error) {
	return MeasurePrivacyWithPrior(o, pg, eps, kind, nil, rounds, seed)
}
