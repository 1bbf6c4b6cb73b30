package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/markov"
	"github.com/pglp/panda/internal/mechanism"
)

// DynamicReleaser implements location release over trajectories under
// temporal correlations, the algorithmic core of the PGLP technical
// report (building on δ-Location Set privacy, Xiao & Xiong CCS'15):
//
// At each timestep the releaser maintains the *public* posterior over the
// user's location — the same belief any adversary with the mobility model
// can compute from past releases. The δ-location set C of that belief is
// the adversary's feasible region; policy edges leaving C are unattainable
// (the adversary already excludes the far endpoint), so the policy is
// repaired to its protectable core (Repair: induced subgraph + surrogate
// edges). The mechanism is rebuilt for the repaired policy and the
// release is drawn from it; finally the public belief is conditioned on
// the released value, ready for the next step.
//
// The true location is always added to C before repair ("surprising
// location" handling): a user outside the δ-set must still release
// something, and including it keeps the mechanism well defined at the
// cost of the δ slack in the guarantee — exactly the δ of δ-location-set
// privacy.
type DynamicReleaser struct {
	grid   *geo.Grid
	policy Policy
	kind   mechanism.Kind
	delta  float64
	chain  *markov.Chain
	filter *markov.Filter
}

// StepResult reports one dynamic release and its policy diagnostics.
type StepResult struct {
	Point geo.Point
	Cell  int // snapped release
	// DeltaSetSize is |C|, the adversary's feasible region size.
	DeltaSetSize int
	// BrokenEdges counts policy edges that left the feasible set.
	BrokenEdges int
	// SurrogateEdges counts edges added to keep nodes protected.
	SurrogateEdges int
	// Feasible reports whether the original policy was attainable as-is.
	Feasible bool
}

// NewDynamicReleaser builds the pipeline. chain is the public mobility
// model (must cover the grid); prior may be nil (uniform); delta in [0,1)
// sets the feasible-set mass 1-δ.
func NewDynamicReleaser(grid *geo.Grid, policy Policy, kind mechanism.Kind, chain *markov.Chain, prior []float64, delta float64) (*DynamicReleaser, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	if chain == nil || chain.NumStates() != grid.NumCells() {
		return nil, errors.New("core: mobility chain must cover the grid")
	}
	if delta < 0 || delta >= 1 || math.IsNaN(delta) {
		return nil, fmt.Errorf("core: delta must be in [0,1), got %v", delta)
	}
	if policy.Graph.NumNodes() != grid.NumCells() {
		return nil, fmt.Errorf("core: policy graph over %d nodes, grid has %d cells",
			policy.Graph.NumNodes(), grid.NumCells())
	}
	f, err := markov.NewFilter(chain, prior)
	if err != nil {
		return nil, err
	}
	return &DynamicReleaser{
		grid: grid, policy: policy, kind: kind, delta: delta, chain: chain, filter: f,
	}, nil
}

// Belief returns the current public posterior over the user's location.
func (d *DynamicReleaser) Belief() []float64 { return d.filter.Belief() }

// Step performs one timestep: predict, δ-set, repair, release, update.
func (d *DynamicReleaser) Step(rng *rand.Rand, trueCell int) (StepResult, error) {
	if !d.grid.InRange(trueCell) {
		return StepResult{}, fmt.Errorf("core: cell %d out of range", trueCell)
	}
	d.filter.Predict()
	set := d.filter.DeltaSet(d.delta)
	// Surprising-location handling: the true cell must be feasible.
	found := false
	for _, c := range set {
		if c == trueCell {
			found = true
			break
		}
	}
	if !found {
		set = append(set, trueCell)
	}
	res := StepResult{DeltaSetSize: len(set)}
	res.Feasible = IsFeasible(d.policy.Graph, set)
	repaired, report := Repair(d.policy.Graph, set, d.grid)
	res.BrokenEdges = len(report.Broken)
	res.SurrogateEdges = len(report.Surrogates)

	m, err := mechanism.New(d.kind, d.grid, repaired, d.policy.Epsilon)
	if err != nil {
		return StepResult{}, err
	}
	z, err := m.Release(rng, trueCell)
	if err != nil {
		return StepResult{}, err
	}
	res.Point = z
	res.Cell = d.grid.Snap(z)

	// Public posterior update with the mechanism's likelihood. Exact
	// disclosures (+Inf) concentrate the belief on the disclosed cell.
	belief := d.filter.Belief()
	exact := -1
	for s, b := range belief {
		if b > 0 && math.IsInf(m.Likelihood(s, z), 1) {
			exact = s
			break
		}
	}
	if exact >= 0 {
		err = d.filter.Update(func(s int) float64 {
			if s == exact {
				return 1
			}
			return 0
		})
	} else {
		err = d.filter.Update(func(s int) float64 {
			l := m.Likelihood(s, z)
			if math.IsInf(l, 1) {
				return 0 // zero-belief exact cells cannot explain z
			}
			return l
		})
	}
	if err != nil {
		// The observation can have zero public likelihood when the true
		// cell was a surprise outside the belief support. Reset toward
		// the released cell rather than failing the stream.
		reset := make([]float64, d.grid.NumCells())
		reset[res.Cell] = 1
		f2, ferr := markov.NewFilter(d.chain, reset)
		if ferr != nil {
			return StepResult{}, fmt.Errorf("core: belief reset failed: %w", ferr)
		}
		d.filter = f2
	}
	return res, nil
}
