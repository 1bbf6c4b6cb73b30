package markov

import (
	"fmt"
	"math"
)

// Chain is a first-order Markov chain over n states (grid cell IDs) with a
// dense row-stochastic transition matrix.
type Chain struct {
	n int
	p []float64 // row-major n×n; p[i*n+j] = Pr(next=j | cur=i)
}

// NewChain builds a chain from a row-major transition matrix. Each row must
// be a probability distribution (non-negative, summing to 1 within 1e-6).
func NewChain(n int, p []float64) (*Chain, error) {
	if n <= 0 {
		return nil, fmt.Errorf("markov: need at least one state, got %d", n)
	}
	if len(p) != n*n {
		return nil, fmt.Errorf("markov: matrix size %d, want %d", len(p), n*n)
	}
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			v := p[i*n+j]
			if v < 0 || math.IsNaN(v) {
				return nil, fmt.Errorf("markov: invalid probability %v at (%d,%d)", v, i, j)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-6 {
			return nil, fmt.Errorf("markov: row %d sums to %v, want 1", i, s)
		}
	}
	q := make([]float64, len(p))
	copy(q, p)
	return &Chain{n: n, p: q}, nil
}

// UniformChain returns the chain where every transition is equally likely —
// the uninformed-adversary prior.
func UniformChain(n int) *Chain {
	p := make([]float64, n*n)
	v := 1 / float64(n)
	for i := range p {
		p[i] = v
	}
	return &Chain{n: n, p: p}
}

// LazyRandomWalk returns a chain that stays with probability stay and
// otherwise moves uniformly to a neighbor given by adj (self excluded).
// States with no neighbors always stay.
func LazyRandomWalk(n int, adj func(i int) []int, stay float64) *Chain {
	p := make([]float64, n*n)
	for i := 0; i < n; i++ {
		ns := adj(i)
		if len(ns) == 0 {
			p[i*n+i] = 1
			continue
		}
		p[i*n+i] = stay
		w := (1 - stay) / float64(len(ns))
		for _, j := range ns {
			p[i*n+j] += w
		}
	}
	return &Chain{n: n, p: p}
}

// NumStates returns the number of states.
func (c *Chain) NumStates() int { return c.n }

// Prob returns Pr(next = j | cur = i).
func (c *Chain) Prob(i, j int) float64 { return c.p[i*c.n+j] }

// Step advances a belief distribution one timestep: out = belief × P.
func (c *Chain) Step(belief []float64) []float64 {
	out := make([]float64, c.n)
	for i, b := range belief {
		if b == 0 {
			continue
		}
		row := c.p[i*c.n : (i+1)*c.n]
		for j, pij := range row {
			if pij != 0 {
				out[j] += b * pij
			}
		}
	}
	return out
}

// EstimateChain fits a chain by transition counting over trajectories
// (each a sequence of cell IDs) with Laplace smoothing alpha added to
// every count. alpha > 0 guarantees a valid chain even for unseen states.
func EstimateChain(n int, trajectories [][]int, alpha float64) (*Chain, error) {
	if n <= 0 {
		return nil, fmt.Errorf("markov: need at least one state, got %d", n)
	}
	if alpha < 0 {
		return nil, fmt.Errorf("markov: smoothing must be non-negative, got %v", alpha)
	}
	counts := make([]float64, n*n)
	for _, tr := range trajectories {
		for k := 0; k+1 < len(tr); k++ {
			a, b := tr[k], tr[k+1]
			if a < 0 || a >= n || b < 0 || b >= n {
				return nil, fmt.Errorf("markov: trajectory state out of range: %d -> %d", a, b)
			}
			counts[a*n+b]++
		}
	}
	p := make([]float64, n*n)
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += counts[i*n+j] + alpha
		}
		if s == 0 {
			// No data and no smoothing: stay put.
			p[i*n+i] = 1
			continue
		}
		for j := 0; j < n; j++ {
			p[i*n+j] = (counts[i*n+j] + alpha) / s
		}
	}
	return &Chain{n: n, p: p}, nil
}
