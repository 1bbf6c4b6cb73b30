package core

import (
	"fmt"
	"math/rand/v2"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/mechanism"
)

// Releaser is the client-side PGLP pipeline of Fig. 3: it binds a grid, a
// policy and a mechanism family, and turns true cells into released
// locations.
type Releaser struct {
	grid   *geo.Grid
	policy Policy
	mech   mechanism.Mechanism
}

// NewReleaser builds a releaser. The mechanism is constructed eagerly so
// policy/graph mismatches surface here.
func NewReleaser(grid *geo.Grid, policy Policy, kind mechanism.Kind) (*Releaser, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	m, err := mechanism.New(kind, grid, policy.Graph, policy.Epsilon)
	if err != nil {
		return nil, err
	}
	return &Releaser{grid: grid, policy: policy, mech: m}, nil
}

// Policy returns the bound policy.
func (r *Releaser) Policy() Policy { return r.policy }

// Mechanism exposes the underlying mechanism (for adversaries/verifiers).
func (r *Releaser) Mechanism() mechanism.Mechanism { return r.mech }

// Release perturbs the true cell s under the policy.
func (r *Releaser) Release(rng *rand.Rand, s int) (geo.Point, error) {
	return r.mech.Release(rng, s)
}

// ReleaseCell perturbs s and also snaps the released point to a grid cell,
// the discretisation the server-side apps consume.
func (r *Releaser) ReleaseCell(rng *rand.Rand, s int) (geo.Point, int, error) {
	p, err := r.Release(rng, s)
	if err != nil {
		return geo.Point{}, 0, err
	}
	return p, r.grid.Snap(p), nil
}

// ReleaseTrajectory releases a whole trajectory of true cells under the
// current policy, one release per timestep (sequential composition).
func (r *Releaser) ReleaseTrajectory(rng *rand.Rand, cells []int) ([]geo.Point, []int, error) {
	pts := make([]geo.Point, len(cells))
	snapped := make([]int, len(cells))
	for i, s := range cells {
		p, c, err := r.ReleaseCell(rng, s)
		if err != nil {
			return nil, nil, fmt.Errorf("core: trajectory step %d: %w", i, err)
		}
		pts[i] = p
		snapped[i] = c
	}
	return pts, snapped, nil
}
