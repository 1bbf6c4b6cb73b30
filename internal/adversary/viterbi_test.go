package adversary

import (
	"math/rand/v2"
	"testing"

	"github.com/pglp/panda/internal/dp"
	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/markov"
	"github.com/pglp/panda/internal/mechanism"
	"github.com/pglp/panda/internal/policygraph"
)

func walkChain(grid *geo.Grid) *markov.Chain {
	return markov.LazyRandomWalk(grid.NumCells(), grid.Neighbors8, 0.4)
}

// decodeError releases truth through m, decodes the releases with
// ReconstructTrajectory, and returns the mean distance between decoded
// and true cells and the fraction decoded exactly.
func decodeError(t *testing.T, grid *geo.Grid, m mechanism.Mechanism, chain *markov.Chain, truth []int, rng *rand.Rand) (mean, exact float64) {
	t.Helper()
	released := make([]geo.Point, len(truth))
	for i, s := range truth {
		z, err := m.Release(rng, s)
		if err != nil {
			t.Fatal(err)
		}
		released[i] = z
	}
	decoded, err := ReconstructTrajectory(grid, m, chain, released, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		mean += geo.Dist(grid.Center(decoded[i]), grid.Center(truth[i]))
		if decoded[i] == truth[i] {
			exact++
		}
	}
	return mean / float64(len(truth)), exact / float64(len(truth))
}

func TestReconstructTrajectoryValidation(t *testing.T) {
	grid := geo.MustGrid(3, 3, 1)
	m, _ := mechanism.NewNull(grid)
	if _, err := ReconstructTrajectory(grid, m, markov.UniformChain(4), nil, nil); err == nil {
		t.Error("chain mismatch should error")
	}
}

func TestReconstructionExactUnderNullMechanism(t *testing.T) {
	// With exact releases the decoder must recover the path perfectly
	// (the chain allows every 8-neighbor move the truth makes).
	grid := geo.MustGrid(4, 4, 1)
	m, _ := mechanism.NewNull(grid)
	chain := walkChain(grid)
	truth := []int{0, 1, 2, 6, 5}
	if mean, exact := decodeError(t, grid, m, chain, truth, dp.NewRand(1)); exact != 1 || mean != 0 {
		t.Errorf("null reconstruction: mean error %v, exact rate %v, want perfect", mean, exact)
	}
}

func TestReconstructionDegradesWithPrivacy(t *testing.T) {
	grid := geo.MustGrid(5, 5, 1)
	g := policygraph.GridEightNeighbor(grid)
	chain := walkChain(grid)
	truth := []int{0, 1, 2, 7, 12, 11, 10, 5}
	errAt := func(eps float64) float64 {
		m, err := mechanism.NewGraphExponential(grid, g, eps)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		const reps = 12
		for r := 0; r < reps; r++ {
			mean, _ := decodeError(t, grid, m, chain, truth, dp.NewRand(uint64(r)+7))
			sum += mean
		}
		return sum / reps
	}
	weak, strong := errAt(6), errAt(0.2)
	if weak >= strong {
		t.Errorf("reconstruction error should grow as ε shrinks: ε=6 → %v, ε=0.2 → %v", weak, strong)
	}
}

func TestReconstructionHonoursExactDisclosures(t *testing.T) {
	// Gc policy: the infected cell is disclosed exactly; whenever the user
	// visits it, the decoder must pin that step.
	grid := geo.MustGrid(3, 3, 1)
	g := policygraph.IsolateNodes(policygraph.GridEightNeighbor(grid), []int{4})
	m, err := mechanism.NewGraphLaplace(grid, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	chain := walkChain(grid)
	truth := []int{0, 4, 4, 8}
	released := make([]geo.Point, len(truth))
	rng := dp.NewRand(5)
	for i, s := range truth {
		z, err := m.Release(rng, s)
		if err != nil {
			t.Fatal(err)
		}
		released[i] = z
	}
	decoded, err := ReconstructTrajectory(grid, m, chain, released, nil)
	if err != nil {
		t.Fatal(err)
	}
	if decoded[1] != 4 || decoded[2] != 4 {
		t.Errorf("decoded = %v, exact disclosures at steps 1,2 must be pinned to 4", decoded)
	}
}

func TestReconstructionEmptyTrajectory(t *testing.T) {
	grid := geo.MustGrid(3, 3, 1)
	m, _ := mechanism.NewNull(grid)
	if _, err := ReconstructTrajectory(grid, m, walkChain(grid), nil, nil); err == nil {
		t.Error("empty trajectory should error")
	}
}
