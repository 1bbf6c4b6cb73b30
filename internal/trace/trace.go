package trace

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"github.com/pglp/panda/internal/dp"
	"github.com/pglp/panda/internal/geo"
)

// Trajectory is one user's movement, one grid cell per timestep.
type Trajectory struct {
	User  int
	Cells []int
}

// Dataset is a population of trajectories over a common grid and horizon.
type Dataset struct {
	Grid  *geo.Grid
	Steps int
	Trajs []Trajectory
}

// Validate checks dataset invariants: positive horizon, all trajectories
// of full length with in-range cells, and unique user IDs.
func (d *Dataset) Validate() error {
	if d.Grid == nil {
		return errors.New("trace: dataset has no grid")
	}
	if d.Steps <= 0 {
		return fmt.Errorf("trace: non-positive horizon %d", d.Steps)
	}
	seen := make(map[int]bool, len(d.Trajs))
	for _, tr := range d.Trajs {
		if seen[tr.User] {
			return fmt.Errorf("trace: duplicate user %d", tr.User)
		}
		seen[tr.User] = true
		if len(tr.Cells) != d.Steps {
			return fmt.Errorf("trace: user %d has %d steps, want %d", tr.User, len(tr.Cells), d.Steps)
		}
		for t, c := range tr.Cells {
			if !d.Grid.InRange(c) {
				return fmt.Errorf("trace: user %d step %d cell %d out of range", tr.User, t, c)
			}
		}
	}
	return nil
}

// NumUsers returns the number of trajectories.
func (d *Dataset) NumUsers() int { return len(d.Trajs) }

// ByUser returns the trajectory of the given user, or nil.
func (d *Dataset) ByUser(user int) *Trajectory {
	for i := range d.Trajs {
		if d.Trajs[i].User == user {
			return &d.Trajs[i]
		}
	}
	return nil
}

// Sequences exposes the raw cell sequences (shared backing arrays), the
// shape markov.EstimateChain consumes.
func (d *Dataset) Sequences() [][]int {
	out := make([][]int, len(d.Trajs))
	for i, tr := range d.Trajs {
		out[i] = tr.Cells
	}
	return out
}

// VisitDistribution returns the empirical distribution of visits over
// cells — the uninformed adversary's prior.
func (d *Dataset) VisitDistribution() []float64 {
	n := d.Grid.NumCells()
	out := make([]float64, n)
	var total float64
	for _, tr := range d.Trajs {
		for _, c := range tr.Cells {
			out[c]++
			total++
		}
	}
	if total > 0 {
		for i := range out {
			out[i] /= total
		}
	}
	return out
}

// Clone deep-copies the dataset (grid shared).
func (d *Dataset) Clone() *Dataset {
	out := &Dataset{Grid: d.Grid, Steps: d.Steps, Trajs: make([]Trajectory, len(d.Trajs))}
	for i, tr := range d.Trajs {
		cells := make([]int, len(tr.Cells))
		copy(cells, tr.Cells)
		out.Trajs[i] = Trajectory{User: tr.User, Cells: cells}
	}
	return out
}

// Perturb returns a copy of the dataset in which every cell is replaced
// by the cell its release snaps to: the dataset a server observes when
// every user reports through release (a mechanism's Release method).
// Trajectory i draws from dp.Derive(seed, i+1), one release per step in
// time order.
func (d *Dataset) Perturb(release func(rng *rand.Rand, cell int) (geo.Point, error), seed uint64) (*Dataset, error) {
	out := d.Clone()
	for i, tr := range out.Trajs {
		rng := dp.Derive(seed, uint64(i)+1)
		for t, c := range tr.Cells {
			z, err := release(rng, c)
			if err != nil {
				return nil, fmt.Errorf("trace: user %d step %d: %w", tr.User, t, err)
			}
			tr.Cells[t] = d.Grid.Snap(z)
		}
	}
	return out, nil
}
