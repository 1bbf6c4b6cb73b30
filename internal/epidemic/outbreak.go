package epidemic

import (
	"errors"
	"fmt"
	"math"

	"github.com/pglp/panda/internal/dp"
	"github.com/pglp/panda/internal/trace"
)

// Status is an agent's compartment.
type Status int8

// Compartments.
const (
	Susceptible Status = iota
	Exposed
	Infectious
	Recovered
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Susceptible:
		return "S"
	case Exposed:
		return "E"
	case Infectious:
		return "I"
	case Recovered:
		return "R"
	}
	return "?"
}

// OutbreakConfig parameterises the agent-based simulation.
type OutbreakConfig struct {
	Seeds            []int   // indices into ds.Trajs of initially infectious users
	TransmissionProb float64 // infection probability per infectious co-located contact per step
	ExposedSteps     int     // latency duration (≥ 0; 0 = SIR-like)
	InfectiousSteps  int     // infectious duration (≥ 1)
	Seed             uint64  // RNG seed
}

// Outbreak is the result of an agent-based epidemic over a trace dataset.
type Outbreak struct {
	// Status[u][t] is user u's compartment at timestep t.
	Status [][]Status
	// Incidence[t] counts new infections (S→E transitions) at step t.
	Incidence []int
	// InfectedBy[u] is the index of the user who infected u (-1 for seeds
	// and never-infected users).
	InfectedBy []int
	// InfectedAt[u] is the timestep of u's S→E transition (-1 if never).
	InfectedAt []int
}

// TotalInfected counts users that ever left the susceptible state.
func (o *Outbreak) TotalInfected() int {
	n := 0
	for _, t := range o.InfectedAt {
		if t >= 0 {
			n++
		}
	}
	return n
}

// SecondaryCases returns, for each user, how many others they infected.
func (o *Outbreak) SecondaryCases() []int {
	out := make([]int, len(o.InfectedBy))
	for _, by := range o.InfectedBy {
		if by >= 0 {
			out[by]++
		}
	}
	return out
}

// EmpiricalR0 estimates R0 as the mean number of secondary cases caused by
// users infected in the first quarter of the horizon (late infections are
// right-censored and would bias the estimate down).
func (o *Outbreak) EmpiricalR0() float64 {
	if len(o.Status) == 0 {
		return 0
	}
	horizon := len(o.Status[0])
	cutoff := horizon / 4
	sec := o.SecondaryCases()
	var sum float64
	var n int
	for u, at := range o.InfectedAt {
		if at >= 0 && at <= cutoff {
			sum += float64(sec[u])
			n++
		}
	}
	// Seeds are infected "at -1"; include them.
	for u, by := range o.InfectedBy {
		if by == -1 && o.InfectedAt[u] == -1 && o.Status[u][0] == Infectious {
			sum += float64(sec[u])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// SimulateOutbreak runs a discrete-time SEIR over the dataset: at each
// timestep every susceptible user co-located with k infectious users
// becomes exposed with probability 1-(1-p)^k.
func SimulateOutbreak(ds *trace.Dataset, cfg OutbreakConfig) (*Outbreak, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if err := checkRates(cfg.TransmissionProb, cfg.InfectiousSteps); err != nil {
		return nil, err
	}
	if cfg.ExposedSteps < 0 {
		return nil, fmt.Errorf("epidemic: need ExposedSteps ≥ 0, got %d", cfg.ExposedSteps)
	}
	if len(cfg.Seeds) == 0 {
		return nil, errors.New("epidemic: no seed cases")
	}
	nu := ds.NumUsers()
	rng := dp.NewRand(cfg.Seed)

	status := make([]Status, nu)
	timer := make([]int, nu) // steps remaining in current compartment
	o := &Outbreak{
		Status:     make([][]Status, nu),
		Incidence:  make([]int, ds.Steps),
		InfectedBy: make([]int, nu),
		InfectedAt: make([]int, nu),
	}
	for u := 0; u < nu; u++ {
		o.Status[u] = make([]Status, ds.Steps)
		o.InfectedBy[u] = -1
		o.InfectedAt[u] = -1
	}
	for _, s := range cfg.Seeds {
		if s < 0 || s >= nu {
			return nil, fmt.Errorf("epidemic: seed user %d out of range", s)
		}
		status[s] = Infectious
		timer[s] = cfg.InfectiousSteps
	}

	for t := 0; t < ds.Steps; t++ {
		// Index infectious users by cell.
		byCell := make(map[int][]int)
		for u := 0; u < nu; u++ {
			if status[u] == Infectious {
				c := ds.Trajs[u].Cells[t]
				byCell[c] = append(byCell[c], u)
			}
		}
		// Transmission.
		for u := 0; u < nu; u++ {
			if status[u] != Susceptible {
				continue
			}
			infectors := byCell[ds.Trajs[u].Cells[t]]
			if len(infectors) == 0 {
				continue
			}
			pEscape := math.Pow(1-cfg.TransmissionProb, float64(len(infectors)))
			if rng.Float64() < 1-pEscape {
				status[u] = Exposed
				timer[u] = cfg.ExposedSteps
				o.Incidence[t]++
				o.InfectedAt[u] = t
				o.InfectedBy[u] = infectors[rng.IntN(len(infectors))]
				if cfg.ExposedSteps == 0 {
					status[u] = Infectious
					timer[u] = cfg.InfectiousSteps
				}
			}
		}
		// Record, then progress compartments.
		for u := 0; u < nu; u++ {
			o.Status[u][t] = status[u]
		}
		for u := 0; u < nu; u++ {
			switch status[u] {
			case Exposed:
				timer[u]--
				if timer[u] <= 0 {
					status[u] = Infectious
					timer[u] = cfg.InfectiousSteps
				}
			case Infectious:
				timer[u]--
				if timer[u] <= 0 {
					status[u] = Recovered
				}
			}
		}
	}
	return o, nil
}

// ContactRate returns the average number of co-located other users per
// user per timestep — the contact rate c of the classical R0 ≈ c·p·D
// formula. It can be computed from true or perturbed traces; comparing the
// two is the paper's epidemic-analysis utility experiment.
func ContactRate(ds *trace.Dataset) (float64, error) {
	if err := ds.Validate(); err != nil {
		return 0, err
	}
	nu := ds.NumUsers()
	if nu == 0 {
		return 0, errors.New("epidemic: empty dataset")
	}
	var contacts float64
	for t := 0; t < ds.Steps; t++ {
		counts := make(map[int]int)
		for _, tr := range ds.Trajs {
			counts[tr.Cells[t]]++
		}
		for _, k := range counts {
			// k users in a cell: each has k-1 contacts.
			contacts += float64(k * (k - 1))
		}
	}
	return contacts / float64(nu*ds.Steps), nil
}

// checkRates refuses a transmission probability outside [0, 1], NaN
// included, and an infectious period shorter than one step: the rules
// SimulateOutbreak and EstimateR0Contacts share.
func checkRates(transmissionProb float64, infectiousSteps int) error {
	if !(transmissionProb >= 0 && transmissionProb <= 1) {
		return fmt.Errorf("epidemic: transmission probability %v outside [0,1]", transmissionProb)
	}
	if infectiousSteps < 1 {
		return fmt.Errorf("epidemic: need InfectiousSteps ≥ 1, got %d", infectiousSteps)
	}
	return nil
}

// EstimateR0Contacts estimates R0 = c·p·D from a (possibly perturbed)
// dataset: contact rate × transmission probability × infectious duration.
// It refuses the rates SimulateOutbreak refuses.
func EstimateR0Contacts(ds *trace.Dataset, transmissionProb float64, infectiousSteps int) (float64, error) {
	if err := checkRates(transmissionProb, infectiousSteps); err != nil {
		return 0, err
	}
	c, err := ContactRate(ds)
	if err != nil {
		return 0, err
	}
	return c * transmissionProb * float64(infectiousSteps), nil
}
