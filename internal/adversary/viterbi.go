package adversary

import (
	"errors"
	"fmt"
	"math"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/markov"
	"github.com/pglp/panda/internal/mechanism"
)

// ReconstructTrajectory runs the Viterbi trajectory-reconstruction attack:
// given the mobility model and the full stream of released locations, it
// decodes the jointly most likely true trajectory. This is the strongest
// trajectory-level adversary in the toolkit (stronger than the forward
// filter, which is optimal only per-step).
//
// Exact disclosures (+Inf likelihoods) are honoured by giving the
// disclosed cell likelihood 1 and every other cell 0 at that step.
func ReconstructTrajectory(grid *geo.Grid, m mechanism.Mechanism, chain *markov.Chain, released []geo.Point, initial []float64) ([]int, error) {
	if chain.NumStates() != grid.NumCells() {
		return nil, fmt.Errorf("adversary: chain over %d states, grid has %d cells",
			chain.NumStates(), grid.NumCells())
	}
	if len(released) == 0 {
		return nil, errors.New("adversary: no released locations")
	}
	n := grid.NumCells()
	likelihoods := make([][]float64, len(released))
	for t, z := range released {
		row := make([]float64, n)
		exact := -1
		for s := 0; s < n; s++ {
			l := m.Likelihood(s, z)
			if math.IsInf(l, 1) {
				exact = s
				break
			}
			row[s] = l
		}
		if exact >= 0 {
			for s := range row {
				row[s] = 0
			}
			row[exact] = 1
		}
		likelihoods[t] = row
	}
	return markov.Viterbi(chain, initial, likelihoods)
}
