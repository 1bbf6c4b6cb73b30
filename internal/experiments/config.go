package experiments

import (
	"errors"
	"fmt"
	"math"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/mechanism"
	"github.com/pglp/panda/internal/policygraph"
	"github.com/pglp/panda/internal/trace"
)

// Config scales all experiments. Paper-scale defaults come from Default;
// Quick is a miniature for unit tests and smoke benches.
type Config struct {
	GridRows, GridCols int
	CellSize           float64
	Users, Steps       int
	Seed               uint64
	// Epsilons is the ε sweep (demo knob "Choose ε").
	Epsilons []float64
	// UtilitySamples bounds the number of (user, t) releases measured per
	// configuration; at least 2, because E4, E5, E10 and E11 measure
	// half as many.
	UtilitySamples int
	// AdversaryRounds is the Monte-Carlo budget of the inference attack;
	// at least 2, because E5, E10 and E11 run half as many rounds.
	AdversaryRounds int
	// MonitorBlock/AnalysisBlock are the Ga and Gb coarse-area sizes
	// (cells per block side).
	MonitorBlock, AnalysisBlock int
	// Outbreak parameters (E2, E3).
	TransmissionProb float64
	ExposedSteps     int
	InfectiousSteps  int
	SeedCases        int
	// Window is the contact-tracing history window ("past two weeks").
	Window int
}

// Default is the paper-scale configuration.
func Default() Config {
	return Config{
		GridRows: 16, GridCols: 16, CellSize: 1,
		Users: 100, Steps: 96, Seed: 42,
		Epsilons:       []float64{0.1, 0.5, 1.0, 2.0},
		UtilitySamples: 2000, AdversaryRounds: 1500,
		MonitorBlock: 8, AnalysisBlock: 4,
		TransmissionProb: 0.4, ExposedSteps: 2, InfectiousSteps: 8, SeedCases: 3,
		Window: 28,
	}
}

// Quick is a miniature configuration for tests and smoke runs.
func Quick() Config {
	c := Default()
	c.GridRows, c.GridCols = 8, 8
	c.Users, c.Steps = 30, 24
	c.Epsilons = []float64{0.5, 2.0}
	c.UtilitySamples = 300
	c.AdversaryRounds = 200
	c.MonitorBlock, c.AnalysisBlock = 4, 2
	c.InfectiousSteps = 6
	c.Window = 12
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.GridRows <= 0 || c.GridCols <= 0 || c.CellSize <= 0 {
		return fmt.Errorf("experiments: invalid grid %dx%d cell %v", c.GridRows, c.GridCols, c.CellSize)
	}
	if c.Users <= 0 || c.Steps <= 0 {
		return fmt.Errorf("experiments: invalid population %d users %d steps", c.Users, c.Steps)
	}
	if len(c.Epsilons) == 0 {
		return errors.New("experiments: no epsilons")
	}
	for _, e := range c.Epsilons {
		if e <= 0 || math.IsNaN(e) || math.IsInf(e, 0) {
			return fmt.Errorf("experiments: epsilon must be positive and finite, got %v", e)
		}
	}
	if c.UtilitySamples < 2 || c.AdversaryRounds < 2 {
		return fmt.Errorf("experiments: sampling budgets must be at least 2, got %d utility samples and %d adversary rounds",
			c.UtilitySamples, c.AdversaryRounds)
	}
	if c.MonitorBlock <= 0 || c.AnalysisBlock <= 0 {
		return errors.New("experiments: non-positive block sizes")
	}
	return nil
}

// Grid builds the experiment grid.
func (c Config) Grid() (*geo.Grid, error) {
	return geo.NewGrid(c.GridRows, c.GridCols, c.CellSize)
}

// Dataset generates the shared GeoLife-like workload.
func (c Config) Dataset(grid *geo.Grid) (*trace.Dataset, error) {
	return trace.GenerateGeoLife(grid, trace.GeoLifeConfig{
		Users: c.Users, Steps: c.Steps, Seed: c.Seed,
		Speed: 2, PauseProb: 0.3, HomeBias: 0.4,
	})
}

// namedPolicy pairs a display name with a policy graph.
type namedPolicy struct {
	name string
	g    *policygraph.Graph
}

// policies builds the paper's predefined policy graphs on the grid.
// Gc is derived from G1 with the given infected cells isolated.
func (c Config) policies(grid *geo.Grid, infected []int) []namedPolicy {
	g1 := policygraph.GridEightNeighbor(grid)
	return []namedPolicy{
		{"G1", g1},
		{"Ga", policygraph.PartitionCliques(grid, c.MonitorBlock, c.MonitorBlock)},
		{"Gb", policygraph.PartitionCliques(grid, c.AnalysisBlock, c.AnalysisBlock)},
		{"Gc", policygraph.IsolateNodes(g1, infected)},
	}
}

// infectedCells derives a deterministic infected-cell set from the
// dataset: the cells user 0 visits in the last Window steps.
func (c Config) infectedCells(ds *trace.Dataset) []int {
	tr := ds.Trajs[0]
	lo := 0
	if c.Window > 0 && c.Window < len(tr.Cells) {
		lo = len(tr.Cells) - c.Window
	}
	seen := map[int]bool{}
	var out []int
	for _, cell := range tr.Cells[lo:] {
		if !seen[cell] {
			seen[cell] = true
			out = append(out, cell)
		}
	}
	return out
}

// utilityProbe is the sample count of the utility probes of E4, E5,
// E10 and E11, where E1's full workload sweep would be redundant: half
// of UtilitySamples, which Validate keeps at one or more.
func (c Config) utilityProbe() int { return c.UtilitySamples / 2 }

// utilityMechanisms is the mechanism sweep of the demo UI.
func utilityMechanisms() []mechanism.Kind {
	return []mechanism.Kind{
		mechanism.KindGEM, mechanism.KindGEME, mechanism.KindGLM,
		mechanism.KindPIM, mechanism.KindKNorm, mechanism.KindGeoInd,
	}
}
