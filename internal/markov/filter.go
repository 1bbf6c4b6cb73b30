package markov

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Filter is a hidden-Markov forward filter over a mobility chain: the
// belief is the posterior distribution over the user's true cell given all
// observations so far. It is both the tracking adversary's engine and the
// source of δ-location sets.
type Filter struct {
	chain  *Chain
	belief []float64
}

// NewFilter creates a filter with the given prior (copied). A nil prior
// starts uniform.
func NewFilter(chain *Chain, prior []float64) (*Filter, error) {
	n := chain.NumStates()
	b := make([]float64, n)
	if prior == nil {
		for i := range b {
			b[i] = 1 / float64(n)
		}
	} else {
		if len(prior) != n {
			return nil, fmt.Errorf("markov: prior length %d, want %d", len(prior), n)
		}
		var s float64
		for i, v := range prior {
			if v < 0 || math.IsNaN(v) {
				return nil, fmt.Errorf("markov: invalid prior mass %v at %d", v, i)
			}
			s += v
		}
		if s <= 0 {
			return nil, fmt.Errorf("markov: prior sums to %v", s)
		}
		for i, v := range prior {
			b[i] = v / s
		}
	}
	return &Filter{chain: chain, belief: b}, nil
}

// Belief returns a copy of the current belief.
func (f *Filter) Belief() []float64 {
	out := make([]float64, len(f.belief))
	copy(out, f.belief)
	return out
}

// Predict advances the belief one timestep through the mobility model.
func (f *Filter) Predict() {
	f.belief = f.chain.Step(f.belief)
}

// Update conditions the belief on an observation with the given likelihood
// function L(s) = Pr(observation | true cell = s). If the total posterior
// mass underflows (observation impossible under the belief), the belief is
// left unchanged and an error is returned.
func (f *Filter) Update(likelihood func(s int) float64) error {
	post := make([]float64, len(f.belief))
	var total float64
	for s, b := range f.belief {
		if b == 0 {
			continue
		}
		l := likelihood(s)
		if l < 0 || math.IsNaN(l) {
			return fmt.Errorf("markov: invalid likelihood %v at state %d", l, s)
		}
		post[s] = b * l
		total += post[s]
	}
	if total <= 0 {
		return errors.New("markov: observation has zero likelihood under current belief")
	}
	for s := range post {
		post[s] /= total
	}
	f.belief = post
	return nil
}

// DeltaSet returns the δ-location set of the current belief: the smallest
// set of cells whose posterior mass is at least 1-δ (Xiao & Xiong CCS'15).
// Cells are returned sorted by ID.
func (f *Filter) DeltaSet(delta float64) []int {
	return DeltaSet(f.belief, delta)
}

// DeltaSet extracts the smallest set of states covering probability mass
// ≥ 1-δ from a distribution, greedily by descending mass.
func DeltaSet(dist []float64, delta float64) []int {
	type sm struct {
		s int
		m float64
	}
	items := make([]sm, 0, len(dist))
	for s, m := range dist {
		if m > 0 {
			items = append(items, sm{s, m})
		}
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].m != items[j].m {
			return items[i].m > items[j].m
		}
		return items[i].s < items[j].s
	})
	need := 1 - delta
	var acc float64
	var out []int
	for _, it := range items {
		if acc >= need {
			break
		}
		out = append(out, it.s)
		acc += it.m
	}
	sort.Ints(out)
	return out
}
