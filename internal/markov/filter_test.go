package markov

import (
	"math"
	"testing"
)

func TestNewFilterValidation(t *testing.T) {
	c := UniformChain(3)
	if _, err := NewFilter(c, []float64{1, 0}); err == nil {
		t.Error("wrong prior length should error")
	}
	if _, err := NewFilter(c, []float64{-1, 1, 1}); err == nil {
		t.Error("negative prior should error")
	}
	if _, err := NewFilter(c, []float64{0, 0, 0}); err == nil {
		t.Error("zero prior should error")
	}
	f, err := NewFilter(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range f.Belief() {
		if math.Abs(b-1.0/3) > 1e-12 {
			t.Errorf("default prior = %v", f.Belief())
		}
	}
	// Prior is normalized.
	f2, _ := NewFilter(c, []float64{2, 2, 0})
	b := f2.Belief()
	if math.Abs(b[0]-0.5) > 1e-12 || b[2] != 0 {
		t.Errorf("normalized prior = %v", b)
	}
}

func TestFilterPredictUpdate(t *testing.T) {
	// Two-state chain that flips state with prob 1.
	c, _ := NewChain(2, []float64{0, 1, 1, 0})
	f, _ := NewFilter(c, []float64{1, 0})
	f.Predict()
	b := f.Belief()
	if b[0] != 0 || b[1] != 1 {
		t.Fatalf("after predict: %v", b)
	}
	// Observation that rules out state 1 is impossible → error, belief kept.
	if err := f.Update(func(s int) float64 {
		if s == 0 {
			return 1
		}
		return 0
	}); err == nil {
		t.Error("impossible observation should error")
	}
	if got := f.Belief(); got[1] != 1 {
		t.Errorf("belief changed on failed update: %v", got)
	}
	// Informative observation concentrates belief.
	f2, _ := NewFilter(c, nil)
	if err := f2.Update(func(s int) float64 {
		if s == 0 {
			return 0.9
		}
		return 0.1
	}); err != nil {
		t.Fatal(err)
	}
	b2 := f2.Belief()
	if math.Abs(b2[0]-0.9) > 1e-12 {
		t.Errorf("posterior = %v, want (0.9, 0.1)", b2)
	}
}

func TestFilterUpdateRejectsBadLikelihood(t *testing.T) {
	f, _ := NewFilter(UniformChain(2), nil)
	if err := f.Update(func(s int) float64 { return -1 }); err == nil {
		t.Error("negative likelihood should error")
	}
	if err := f.Update(func(s int) float64 { return math.NaN() }); err == nil {
		t.Error("NaN likelihood should error")
	}
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDeltaSet(t *testing.T) {
	dist := []float64{0.5, 0.3, 0.15, 0.05}
	if got := DeltaSet(dist, 0.2); !sameInts(got, []int{0, 1}) {
		t.Errorf("DeltaSet(0.2) = %v, want [0 1]", got)
	}
	if got := DeltaSet(dist, 0.05); !sameInts(got, []int{0, 1, 2}) {
		t.Errorf("DeltaSet(0.05) = %v, want [0 1 2]", got)
	}
	if got := DeltaSet(dist, 0); !sameInts(got, []int{0, 1, 2, 3}) {
		t.Errorf("DeltaSet(0) = %v, want all", got)
	}
	// Zero-mass states never included.
	dist2 := []float64{0.5, 0, 0.5}
	if got := DeltaSet(dist2, 0); !sameInts(got, []int{0, 2}) {
		t.Errorf("DeltaSet zero-mass = %v", got)
	}
}

func TestDeltaSetCoversMass(t *testing.T) {
	dist := []float64{0.05, 0.1, 0.02, 0.4, 0.13, 0.3}
	for _, delta := range []float64{0, 0.01, 0.1, 0.3, 0.5} {
		set := DeltaSet(dist, delta)
		var mass float64
		for _, s := range set {
			mass += dist[s]
		}
		if mass < 1-delta-1e-12 {
			t.Errorf("δ=%v: set %v covers %v < %v", delta, set, mass, 1-delta)
		}
		// Minimality: removing the smallest member must drop below 1-δ.
		if len(set) > 0 {
			smallest := set[0]
			for _, s := range set {
				if dist[s] < dist[smallest] {
					smallest = s
				}
			}
			if mass-dist[smallest] >= 1-delta {
				t.Errorf("δ=%v: set %v not minimal", delta, set)
			}
		}
	}
}

func TestFilterTrackingScenario(t *testing.T) {
	// A user walking right on a 5-cell line, observed with noisy
	// likelihoods; the filter should track the motion.
	n := 5
	c := LazyRandomWalk(n, func(i int) []int {
		var ns []int
		if i > 0 {
			ns = append(ns, i-1)
		}
		if i < n-1 {
			ns = append(ns, i+1)
		}
		return ns
	}, 0.1)
	f, _ := NewFilter(c, []float64{1, 0, 0, 0, 0})
	truth := []int{1, 2, 3}
	for _, pos := range truth {
		f.Predict()
		p := pos
		if err := f.Update(func(s int) float64 {
			d := math.Abs(float64(s - p))
			return math.Exp(-2 * d)
		}); err != nil {
			t.Fatal(err)
		}
	}
	b := f.Belief()
	best := 0
	for i, v := range b {
		if v > b[best] {
			best = i
		}
	}
	if best != 3 {
		t.Errorf("filter MAP = %d, want 3 (belief %v)", best, b)
	}
}
