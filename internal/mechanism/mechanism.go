package mechanism

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/pglp/panda/internal/dp"
	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policygraph"
)

// Mechanism is a randomized location-release algorithm bound to a grid, a
// location policy graph and a privacy level ε.
type Mechanism interface {
	// Name identifies the mechanism family for reports.
	Name() string
	// Epsilon returns the privacy parameter the mechanism was built with.
	Epsilon() float64
	// Release perturbs the true cell s and returns the released location.
	Release(rng *rand.Rand, s int) (geo.Point, error)
	// Likelihood returns the probability mass (discrete mechanisms) or
	// density (continuous mechanisms) of releasing z when the true cell
	// is s. Exact disclosures are signalled with +Inf at the disclosed
	// point and 0 elsewhere; Bayesian consumers must treat +Inf as an
	// exact-match observation. Ratios across candidate cells at a fixed z
	// are exact, which is all the adversary and the verifier need.
	Likelihood(s int, z geo.Point) float64
}

// MeanError returns the mean Euclidean distance between a release and
// its true cell's center over n true cells drawn uniformly at random:
// the utility readout of the demo and of experiments E4 and E5. The
// cells and the releases draw in turn from one stream, dp.NewRand(seed).
func MeanError(m Mechanism, grid *geo.Grid, n int, seed uint64) (float64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("mechanism: sample count must be positive, got %d", n)
	}
	rng := dp.NewRand(seed)
	var sum float64
	for i := 0; i < n; i++ {
		s := rng.IntN(grid.NumCells())
		z, err := m.Release(rng, s)
		if err != nil {
			return 0, err
		}
		sum += geo.Dist(z, grid.Center(s))
	}
	return sum / float64(n), nil
}

// exactTol is the matching tolerance when deciding whether an observed
// point is an exact disclosure of a cell center.
const exactTol = 1e-9

// base carries the state shared by all mechanisms and validates it.
type base struct {
	grid *geo.Grid
	eps  float64
}

func newBase(grid *geo.Grid, g *policygraph.Graph, eps float64) (base, error) {
	if grid == nil {
		return base{}, errors.New("mechanism: nil grid")
	}
	if g == nil {
		return base{}, errors.New("mechanism: nil policy graph")
	}
	if g.NumNodes() != grid.NumCells() {
		return base{}, fmt.Errorf("mechanism: policy graph over %d nodes, grid has %d cells",
			g.NumNodes(), grid.NumCells())
	}
	if err := dp.CheckEpsilon(eps); err != nil {
		return base{}, fmt.Errorf("mechanism: %w", err)
	}
	return base{grid: grid, eps: eps}, nil
}

func (b *base) Epsilon() float64 { return b.eps }

func (b *base) checkCell(s int) error {
	if !b.grid.InRange(s) {
		return fmt.Errorf("mechanism: cell %d out of range [0,%d)", s, b.grid.NumCells())
	}
	return nil
}

// isExactPoint reports whether z is (numerically) exactly the center of s.
func (b *base) isExactPoint(s int, z geo.Point) bool {
	return geo.AlmostEqual(b.grid.Center(s), z, exactTol)
}

// Null is the no-privacy baseline: it releases the true cell center.
type Null struct {
	base
}

// NewNull builds the identity "mechanism". Epsilon is reported as +Inf-like
// sentinel value math.MaxFloat64 since no privacy is provided; the value
// passed in is ignored.
func NewNull(grid *geo.Grid) (*Null, error) {
	g := policygraph.New(grid.NumCells())
	b, err := newBase(grid, g, 1)
	if err != nil {
		return nil, err
	}
	b.eps = math.MaxFloat64
	return &Null{base: b}, nil
}

// Name implements Mechanism.
func (n *Null) Name() string { return "null" }

// Release implements Mechanism.
func (n *Null) Release(_ *rand.Rand, s int) (geo.Point, error) {
	if err := n.checkCell(s); err != nil {
		return geo.Point{}, err
	}
	return n.grid.Center(s), nil
}

// Likelihood implements Mechanism.
func (n *Null) Likelihood(s int, z geo.Point) float64 {
	if !n.grid.InRange(s) {
		return 0
	}
	if n.isExactPoint(s, z) {
		return math.Inf(1)
	}
	return 0
}
