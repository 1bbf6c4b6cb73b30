package contact

import (
	"errors"
	"fmt"
	"sort"

	"github.com/pglp/panda/internal/dp"
	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/mechanism"
	"github.com/pglp/panda/internal/metrics"
	"github.com/pglp/panda/internal/policygraph"
	"github.com/pglp/panda/internal/trace"
)

// ContactsOf returns the ground-truth contacts of a patient: users with at
// least minCo co-locations within the last `window` steps (window ≤ 0
// means the whole horizon).
func ContactsOf(ds *trace.Dataset, patient int, minCo, window int) ([]int, error) {
	pt := ds.ByUser(patient)
	if pt == nil {
		return nil, fmt.Errorf("contact: unknown patient %d", patient)
	}
	lo := 0
	if window > 0 && window < ds.Steps {
		lo = ds.Steps - window
	}
	var out []int
	for _, tr := range ds.Trajs {
		if tr.User == patient {
			continue
		}
		if countCoLocations(pt.Cells[lo:], tr.Cells[lo:]) >= minCo {
			out = append(out, tr.User)
		}
	}
	sort.Ints(out)
	return out, nil
}

func countCoLocations(a, b []int) int {
	n := min(len(a), len(b))
	c := 0
	for t := 0; t < n; t++ {
		if a[t] == b[t] {
			c++
		}
	}
	return c
}

// Config parameterises the tracing protocol.
type Config struct {
	Epsilon        float64        // per-release privacy level
	Kind           mechanism.Kind // PGLP mechanism family
	MinCoLocations int            // decision rule threshold (paper: 2)
	Window         int            // steps of history re-sent ("past two weeks"); ≤0 = all
	Seed           uint64
}

// Validate checks the protocol configuration.
func (c Config) Validate() error {
	if err := dp.CheckEpsilon(c.Epsilon); err != nil {
		return fmt.Errorf("contact: %w", err)
	}
	if c.MinCoLocations < 1 {
		return fmt.Errorf("contact: MinCoLocations must be ≥ 1, got %d", c.MinCoLocations)
	}
	if c.Kind == "" {
		return errors.New("contact: mechanism kind required")
	}
	return nil
}

// Result reports a tracing run.
type Result struct {
	// Flagged are the users the protocol identified as at risk.
	Flagged []int
	// Truth are the ground-truth contacts under the same rule and window.
	Truth []int
	// Classification compares Flagged against Truth.
	Classification metrics.Classification
	// InfectedCells are the disclosable cells derived from patient traces.
	InfectedCells []int
	// Releases counts location releases performed during the protocol.
	Releases int
}

// Precision, Recall and F1 are convenience accessors.
func (r *Result) Precision() float64 { return r.Classification.Precision() }
func (r *Result) Recall() float64    { return r.Classification.Recall() }
func (r *Result) F1() float64        { return r.Classification.F1() }

// Trace runs the dynamic-policy protocol of the paper for a set of
// diagnosed patients:
//
//  1. Patients consent to disclosing their true window of history; the
//     cells they visited become the infected set.
//  2. The policy module switches every other user to Gc =
//     IsolateNodes(base, infected): infected places disclosable, everything
//     else keeps indistinguishability.
//  3. Users re-send their window under the new policy. Visits to infected
//     cells surface as exact disclosures (released point = cell center);
//     all other visits stay perturbed inside the healthy sub-policy.
//  4. The server counts, per patient, exact matches at the patient's
//     (cell, time) pairs, and flags users reaching MinCoLocations with any
//     patient.
func Trace(ds *trace.Dataset, base *policygraph.Graph, patients []int, cfg Config) (*Result, error) {
	p, err := newProtocol(ds, patients, cfg)
	if err != nil {
		return nil, err
	}

	// Step 1-2: infected cells and the updated policy graph Gc.
	infectedSet := make(map[int]bool)
	for _, cells := range p.trajs {
		for _, c := range cells[p.lo:] {
			infectedSet[c] = true
		}
	}
	infected := make([]int, 0, len(infectedSet))
	for c := range infectedSet {
		infected = append(infected, c)
	}
	sort.Ints(infected)
	m, err := mechanism.New(cfg.Kind, ds.Grid, policygraph.IsolateNodes(base, infected), cfg.Epsilon)
	if err != nil {
		return nil, err
	}

	// Step 3-4: re-send and match.
	res, err := p.flag(m, func(pc int, z geo.Point) bool {
		return infectedSet[pc] && geo.AlmostEqual(z, ds.Grid.Center(pc), 1e-9)
	})
	if err != nil {
		return nil, err
	}
	res.InfectedCells = infected
	return res, nil
}

// StaticBaseline runs contact detection WITHOUT dynamic policy updates:
// the server only has the perturbed releases every user already sent under
// the static base policy, plus the diagnosed patients' disclosed true
// traces. It counts co-locations between patient truth and others'
// snapped releases. This is the paper's foil: without policy updates the
// rule fires on noise.
func StaticBaseline(ds *trace.Dataset, base *policygraph.Graph, patients []int, cfg Config) (*Result, error) {
	p, err := newProtocol(ds, patients, cfg)
	if err != nil {
		return nil, err
	}
	m, err := mechanism.New(cfg.Kind, ds.Grid, base, cfg.Epsilon)
	if err != nil {
		return nil, err
	}
	return p.flag(m, func(pc int, z geo.Point) bool { return pc == ds.Grid.Snap(z) })
}

// protocol is what Trace and StaticBaseline share: the diagnosed
// patients' true trajectories and the first step of the window.
type protocol struct {
	ds        *trace.Dataset
	cfg       Config
	patients  []int
	isPatient map[int]bool
	trajs     map[int][]int // patient → true cells
	lo        int
}

func newProtocol(ds *trace.Dataset, patients []int, cfg Config) (*protocol, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if len(patients) == 0 {
		return nil, errors.New("contact: no diagnosed patients")
	}
	p := &protocol{
		ds: ds, cfg: cfg, patients: patients,
		isPatient: make(map[int]bool, len(patients)),
		trajs:     make(map[int][]int, len(patients)),
	}
	for _, id := range patients {
		tr := ds.ByUser(id)
		if tr == nil {
			return nil, fmt.Errorf("contact: unknown patient %d", id)
		}
		p.isPatient[id] = true
		p.trajs[id] = tr.Cells
	}
	if cfg.Window > 0 && cfg.Window < ds.Steps {
		p.lo = ds.Steps - cfg.Window
	}
	return p, nil
}

// flag releases the window of every user but the patients through m,
// user i drawing from dp.Derive(Seed, i+1), and flags those with at
// least MinCoLocations steps on which match(patient's cell, release)
// holds for one patient. It classifies the flags against the ground
// truth under the same rule and window.
func (p *protocol) flag(m mechanism.Mechanism, match func(pc int, z geo.Point) bool) (*Result, error) {
	res := &Result{}
	for ui, tr := range p.ds.Trajs {
		if p.isPatient[tr.User] {
			continue
		}
		rng := dp.Derive(p.cfg.Seed, uint64(ui)+1)
		pts := make([]geo.Point, len(tr.Cells)-p.lo)
		for i, c := range tr.Cells[p.lo:] {
			z, err := m.Release(rng, c)
			if err != nil {
				return nil, fmt.Errorf("contact: user %d step %d: %w", tr.User, p.lo+i, err)
			}
			pts[i] = z
		}
		res.Releases += len(pts)
		best := 0
		for _, pcells := range p.trajs {
			hits := 0
			for i, z := range pts {
				if match(pcells[p.lo+i], z) {
					hits++
				}
			}
			best = max(best, hits)
		}
		if best >= p.cfg.MinCoLocations {
			res.Flagged = append(res.Flagged, tr.User)
		}
	}
	sort.Ints(res.Flagged)

	truthSet := make(map[int]bool)
	for _, id := range p.patients {
		truth, err := ContactsOf(p.ds, id, p.cfg.MinCoLocations, p.cfg.Window)
		if err != nil {
			return nil, err
		}
		for _, u := range truth {
			if !p.isPatient[u] {
				truthSet[u] = true
			}
		}
	}
	for u := range truthSet {
		res.Truth = append(res.Truth, u)
	}
	sort.Ints(res.Truth)
	res.Classification = metrics.Classify(res.Flagged, res.Truth)
	return res, nil
}
