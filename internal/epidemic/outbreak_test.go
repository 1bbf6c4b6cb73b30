package epidemic

import (
	"math"
	"testing"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/trace"
)

// staticDataset puts every user in a fixed cell for all steps.
func staticDataset(grid *geo.Grid, cells []int, steps int) *trace.Dataset {
	ds := &trace.Dataset{Grid: grid, Steps: steps, Trajs: make([]trace.Trajectory, len(cells))}
	for u, c := range cells {
		cs := make([]int, steps)
		for t := range cs {
			cs[t] = c
		}
		ds.Trajs[u] = trace.Trajectory{User: u, Cells: cs}
	}
	return ds
}

func TestSimulateOutbreakCertainTransmission(t *testing.T) {
	grid := geo.MustGrid(2, 2, 1)
	// Users 0 and 1 share a cell; user 2 isolated.
	ds := staticDataset(grid, []int{0, 0, 3}, 5)
	o, err := SimulateOutbreak(ds, OutbreakConfig{
		Seeds: []int{0}, TransmissionProb: 1, ExposedSteps: 0, InfectiousSteps: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.InfectedAt[1] != 0 {
		t.Errorf("co-located user infected at %d, want 0", o.InfectedAt[1])
	}
	if o.InfectedBy[1] != 0 {
		t.Errorf("InfectedBy[1] = %d, want 0", o.InfectedBy[1])
	}
	if o.InfectedAt[2] != -1 {
		t.Error("isolated user should never be infected")
	}
	if o.TotalInfected() != 1 {
		t.Errorf("TotalInfected = %d, want 1 (seed not counted)", o.TotalInfected())
	}
	// Seed recovers after InfectiousSteps.
	if o.Status[0][4] != Recovered {
		t.Errorf("seed status at t=4 is %v, want R", o.Status[0][4])
	}
}

func TestSimulateOutbreakZeroTransmission(t *testing.T) {
	grid := geo.MustGrid(2, 2, 1)
	ds := staticDataset(grid, []int{0, 0, 0}, 4)
	o, err := SimulateOutbreak(ds, OutbreakConfig{
		Seeds: []int{0}, TransmissionProb: 0, ExposedSteps: 1, InfectiousSteps: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.TotalInfected() != 0 {
		t.Errorf("p=0 should infect nobody, got %d", o.TotalInfected())
	}
}

func TestSimulateOutbreakExposedDelay(t *testing.T) {
	grid := geo.MustGrid(1, 2, 1)
	ds := staticDataset(grid, []int{0, 0}, 6)
	o, err := SimulateOutbreak(ds, OutbreakConfig{
		Seeds: []int{0}, TransmissionProb: 1, ExposedSteps: 2, InfectiousSteps: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// User 1 exposed at t=0, stays E for 2 steps, becomes I at t=2.
	if o.Status[1][0] != Exposed || o.Status[1][1] != Exposed {
		t.Errorf("status[1][0..1] = %v,%v, want E,E", o.Status[1][0], o.Status[1][1])
	}
	if o.Status[1][2] != Infectious {
		t.Errorf("status[1][2] = %v, want I", o.Status[1][2])
	}
}

func TestSimulateOutbreakValidation(t *testing.T) {
	grid := geo.MustGrid(2, 2, 1)
	ds := staticDataset(grid, []int{0, 1}, 3)
	cases := []OutbreakConfig{
		{Seeds: nil, TransmissionProb: 0.5, InfectiousSteps: 1},
		{Seeds: []int{0}, TransmissionProb: 1.5, InfectiousSteps: 1},
		{Seeds: []int{0}, TransmissionProb: -0.5, InfectiousSteps: 1},
		{Seeds: []int{0}, TransmissionProb: math.NaN(), InfectiousSteps: 1},
		{Seeds: []int{0}, TransmissionProb: 0.5, InfectiousSteps: 0},
		{Seeds: []int{0}, TransmissionProb: 0.5, ExposedSteps: -1, InfectiousSteps: 1},
		{Seeds: []int{9}, TransmissionProb: 0.5, InfectiousSteps: 1},
	}
	for i, cfg := range cases {
		if _, err := SimulateOutbreak(ds, cfg); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
	// EstimateR0Contacts follows the same rules for its two arguments.
	for _, c := range []struct {
		p     float64
		steps int
	}{{-1, 8}, {1.5, 8}, {math.NaN(), 8}, {0.4, -8}, {0.4, 0}} {
		if r0, err := EstimateR0Contacts(ds, c.p, c.steps); err == nil {
			t.Errorf("EstimateR0Contacts(%v, %d) = %v, want an error", c.p, c.steps, r0)
		}
	}
}

func TestIncidenceMatchesInfectedAt(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	ds, err := trace.GenerateGeoLife(grid, trace.GeoLifeConfig{
		Users: 40, Steps: 30, Seed: 5, Speed: 1, PauseProb: 0.4, HomeBias: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	o, err := SimulateOutbreak(ds, OutbreakConfig{
		Seeds: []int{0, 1}, TransmissionProb: 0.3, ExposedSteps: 1, InfectiousSteps: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var fromIncidence int
	for _, c := range o.Incidence {
		fromIncidence += c
	}
	if fromIncidence != o.TotalInfected() {
		t.Errorf("incidence total %d != infected %d", fromIncidence, o.TotalInfected())
	}
	// Transmission tree consistency: infectors were infectious at the time.
	for u, by := range o.InfectedBy {
		if by < 0 {
			continue
		}
		at := o.InfectedAt[u]
		if o.Status[by][at] != Infectious {
			t.Errorf("user %d infected by %d at t=%d, but infector status is %v",
				u, by, at, o.Status[by][at])
		}
		// Same cell.
		if ds.Trajs[u].Cells[at] != ds.Trajs[by].Cells[at] {
			t.Errorf("infection without co-location at t=%d", at)
		}
	}
}

func TestSecondaryCasesAndEmpiricalR0(t *testing.T) {
	grid := geo.MustGrid(1, 2, 1)
	// Seed with 3 victims all in one cell, certain transmission: the seed
	// infects all 3 at t=0 → 3 secondary cases for the seed.
	ds := staticDataset(grid, []int{0, 0, 0, 0}, 4)
	o, err := SimulateOutbreak(ds, OutbreakConfig{
		Seeds: []int{0}, TransmissionProb: 1, ExposedSteps: 10, InfectiousSteps: 1, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	sec := o.SecondaryCases()
	if sec[0] != 3 {
		t.Errorf("seed secondary cases = %d, want 3", sec[0])
	}
	r0 := o.EmpiricalR0()
	if r0 < 0.7 { // seed contributes 3; victims (infected at t=0 ≤ cutoff) contribute 0
		t.Errorf("EmpiricalR0 = %v, want ≥ 0.7", r0)
	}
}

func TestContactRate(t *testing.T) {
	grid := geo.MustGrid(2, 2, 1)
	// 3 users in one cell, 1 alone: contacts per step = (3·2 + 0)/4 = 1.5.
	ds := staticDataset(grid, []int{0, 0, 0, 3}, 10)
	c, err := ContactRate(ds)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-1.5) > 1e-12 {
		t.Errorf("contact rate = %v, want 1.5", c)
	}
	r0, err := EstimateR0Contacts(ds, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r0-1.5) > 1e-12 {
		t.Errorf("R0 = %v, want 1.5", r0)
	}
}
