package adversary

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/markov"
	"github.com/pglp/panda/internal/mechanism"
)

// Bayesian is a single-observation inference adversary with a fixed prior.
type Bayesian struct {
	grid  *geo.Grid
	prior []float64
}

// NewBayesian validates and normalises the prior (nil = uniform).
func NewBayesian(grid *geo.Grid, prior []float64) (*Bayesian, error) {
	n := grid.NumCells()
	p := make([]float64, n)
	if prior == nil {
		for i := range p {
			p[i] = 1 / float64(n)
		}
		return &Bayesian{grid: grid, prior: p}, nil
	}
	if len(prior) != n {
		return nil, fmt.Errorf("adversary: prior length %d, want %d", len(prior), n)
	}
	var s float64
	for i, v := range prior {
		if v < 0 || math.IsNaN(v) {
			return nil, fmt.Errorf("adversary: invalid prior mass %v at %d", v, i)
		}
		s += v
	}
	if s <= 0 {
		return nil, errors.New("adversary: prior has zero mass")
	}
	for i, v := range prior {
		p[i] = v / s
	}
	return &Bayesian{grid: grid, prior: p}, nil
}

// Posterior computes Pr[true cell = s | released z] under the mechanism's
// likelihood model. The +Inf likelihood convention (exact disclosures) is
// honoured: if any prior-supported cell matches the observation exactly,
// the posterior is the prior restricted to the exactly-matching cells.
func (a *Bayesian) Posterior(m mechanism.Mechanism, z geo.Point) ([]float64, error) {
	return posterior(a.grid, a.prior, m, z)
}

// posterior is shared by Bayesian and Tracker.
func posterior(grid *geo.Grid, prior []float64, m mechanism.Mechanism, z geo.Point) ([]float64, error) {
	n := len(prior)
	post := make([]float64, n)
	var total float64
	var exact []int
	for s := 0; s < n; s++ {
		if prior[s] == 0 {
			continue
		}
		l := m.Likelihood(s, z)
		if math.IsInf(l, 1) {
			exact = append(exact, s)
			continue
		}
		if l < 0 || math.IsNaN(l) {
			return nil, fmt.Errorf("adversary: invalid likelihood %v at cell %d", l, s)
		}
		post[s] = prior[s] * l
		total += post[s]
	}
	if len(exact) > 0 {
		// Exact disclosure dominates any finite density.
		for i := range post {
			post[i] = 0
		}
		var mass float64
		for _, s := range exact {
			mass += prior[s]
		}
		for _, s := range exact {
			post[s] = prior[s] / mass
		}
		return post, nil
	}
	if total <= 0 {
		return nil, fmt.Errorf("adversary: observation %v impossible under prior", z)
	}
	for i := range post {
		post[i] /= total
	}
	return post, nil
}

// MAP returns the maximum-a-posteriori cell of a distribution (lowest ID
// wins ties).
func MAP(dist []float64) int {
	best := 0
	for i, v := range dist {
		if v > dist[best] {
			best = i
		}
	}
	return best
}

// Centroid returns the posterior-mean point — the Bayes estimator for
// squared Euclidean loss.
func Centroid(grid *geo.Grid, dist []float64) geo.Point {
	var p geo.Point
	for s, v := range dist {
		if v > 0 {
			p = p.Add(grid.Center(s).Scale(v))
		}
	}
	return p
}

// Medoid returns the cell minimising the posterior-expected Euclidean
// distance — the Bayes estimator for the adversary-error loss. Candidates
// are restricted to the posterior support for efficiency.
func Medoid(grid *geo.Grid, dist []float64) int {
	support := make([]int, 0, 64)
	for s, v := range dist {
		if v > 0 {
			support = append(support, s)
		}
	}
	if len(support) == 0 {
		return 0
	}
	best, bestCost := support[0], math.Inf(1)
	for _, cand := range support {
		var cost float64
		cc := grid.Center(cand)
		for _, s := range support {
			cost += dist[s] * geo.Dist(cc, grid.Center(s))
			if cost >= bestCost {
				break
			}
		}
		if cost < bestCost {
			best, bestCost = cand, cost
		}
	}
	return best
}

// Estimator selects the adversary's point-estimate rule.
type Estimator int

// Estimator kinds.
const (
	EstimatorMAP Estimator = iota
	EstimatorMedoid
	EstimatorCentroid
)

// String implements fmt.Stringer.
func (e Estimator) String() string {
	switch e {
	case EstimatorMAP:
		return "map"
	case EstimatorMedoid:
		return "medoid"
	case EstimatorCentroid:
		return "centroid"
	}
	return "unknown"
}

// estimatePoint applies the estimator to a posterior.
func estimatePoint(grid *geo.Grid, dist []float64, e Estimator) geo.Point {
	switch e {
	case EstimatorCentroid:
		return Centroid(grid, dist)
	case EstimatorMedoid:
		return grid.Center(Medoid(grid, dist))
	default:
		return grid.Center(MAP(dist))
	}
}

// ErrorReport summarises an expected-error experiment.
type ErrorReport struct {
	// MeanError is the Shokri adversary error: E[d(ŝ, s)] in plane units.
	MeanError float64
	// HitRate is the fraction of rounds where the estimated cell equalled
	// the true cell.
	HitRate float64
	// Rounds is the number of Monte-Carlo rounds.
	Rounds int
}

// ExpectedError runs the inference attack for `rounds` Monte-Carlo rounds:
// a true cell is drawn from the adversary's prior, the mechanism releases
// a location, and the adversary estimates. It returns the mean Euclidean
// error and exact-cell hit rate.
func (a *Bayesian) ExpectedError(m mechanism.Mechanism, est Estimator, rounds int, rng *rand.Rand) (ErrorReport, error) {
	if rounds <= 0 {
		return ErrorReport{}, fmt.Errorf("adversary: rounds must be positive, got %d", rounds)
	}
	cum := make([]float64, len(a.prior))
	var acc float64
	for i, v := range a.prior {
		acc += v
		cum[i] = acc
	}
	var sumErr float64
	hits := 0
	for r := 0; r < rounds; r++ {
		s := sampleCum(rng, cum)
		z, err := m.Release(rng, s)
		if err != nil {
			return ErrorReport{}, err
		}
		post, err := a.Posterior(m, z)
		if err != nil {
			return ErrorReport{}, err
		}
		estimate := estimatePoint(a.grid, post, est)
		sumErr += geo.Dist(estimate, a.grid.Center(s))
		if a.grid.Snap(estimate) == s {
			hits++
		}
	}
	return ErrorReport{
		MeanError: sumErr / float64(rounds),
		HitRate:   float64(hits) / float64(rounds),
		Rounds:    rounds,
	}, nil
}

func sampleCum(rng *rand.Rand, cum []float64) int {
	u := rng.Float64() * cum[len(cum)-1]
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Tracker is the multi-observation adversary: a hidden-Markov filter whose
// emission model is the release mechanism. It reconstructs a trajectory
// from the stream of released locations.
type Tracker struct {
	grid   *geo.Grid
	mech   mechanism.Mechanism
	filter *markov.Filter
}

// NewTracker builds a tracking adversary with the given mobility model and
// initial prior (nil = uniform).
func NewTracker(grid *geo.Grid, m mechanism.Mechanism, chain *markov.Chain, prior []float64) (*Tracker, error) {
	if chain.NumStates() != grid.NumCells() {
		return nil, fmt.Errorf("adversary: chain over %d states, grid has %d cells",
			chain.NumStates(), grid.NumCells())
	}
	f, err := markov.NewFilter(chain, prior)
	if err != nil {
		return nil, err
	}
	return &Tracker{grid: grid, mech: m, filter: f}, nil
}

// Observe advances the mobility prior one step and conditions on a
// released location.
func (t *Tracker) Observe(z geo.Point) error {
	t.filter.Predict()
	belief := t.filter.Belief()
	post, err := posterior(t.grid, belief, t.mech, z)
	if err != nil {
		return err
	}
	// Install the posterior by exact-likelihood update.
	return t.filter.Update(func(s int) float64 {
		if belief[s] == 0 {
			return 0
		}
		return post[s] / belief[s]
	})
}

// Estimate applies an estimator to the current posterior.
func (t *Tracker) Estimate(est Estimator) geo.Point {
	return estimatePoint(t.grid, t.filter.Belief(), est)
}

// TrackingError releases the trajectory through the mechanism and measures
// the tracker's mean estimation error along it.
func TrackingError(grid *geo.Grid, m mechanism.Mechanism, chain *markov.Chain, truth []int, est Estimator, rng *rand.Rand) (float64, error) {
	tr, err := NewTracker(grid, m, chain, nil)
	if err != nil {
		return 0, err
	}
	if len(truth) == 0 {
		return 0, errors.New("adversary: empty trajectory")
	}
	var sum float64
	for _, s := range truth {
		z, err := m.Release(rng, s)
		if err != nil {
			return 0, err
		}
		if err := tr.Observe(z); err != nil {
			return 0, err
		}
		sum += geo.Dist(tr.Estimate(est), grid.Center(s))
	}
	return sum / float64(len(truth)), nil
}

// Remap is the utility post-processing dual of the attack: the released
// point is replaced by the posterior centroid under a public prior. Since
// it is a function of the mechanism output only, it consumes no extra
// privacy budget (post-processing invariance).
func Remap(grid *geo.Grid, prior []float64, m mechanism.Mechanism, z geo.Point) (geo.Point, error) {
	post, err := posterior(grid, prior, m, z)
	if err != nil {
		return z, err
	}
	return Centroid(grid, post), nil
}
