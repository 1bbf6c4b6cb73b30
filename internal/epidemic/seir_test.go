package epidemic

import (
	"math"
	"testing"
)

func TestSEIRParamsValidate(t *testing.T) {
	good := SEIRParams{Beta: 0.5, Sigma: 0.2, Gamma: 0.1, N: 1000}
	if err := good.Validate(); err != nil {
		t.Fatalf("good params rejected: %v", err)
	}
	bad := []SEIRParams{
		{Beta: -1, Sigma: 0.2, Gamma: 0.1, N: 100},
		{Beta: 0.5, Sigma: 0, Gamma: 0.1, N: 100},
		{Beta: 0.5, Sigma: 0.2, Gamma: 0, N: 100},
		{Beta: 0.5, Sigma: 0.2, Gamma: 0.1, N: 0},
		{Beta: math.NaN(), Sigma: 0.2, Gamma: 0.1, N: 100},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: bad params accepted", i)
		}
	}
}

func TestSimulateSEIRConservation(t *testing.T) {
	p := SEIRParams{Beta: 0.4, Sigma: 0.25, Gamma: 0.1, N: 1000}
	init := SEIRState{S: 990, E: 0, I: 10, R: 0}
	states, err := SimulateSEIR(p, init, 500, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 501 {
		t.Fatalf("got %d states", len(states))
	}
	for i, s := range states {
		if total := s.S + s.E + s.I + s.R; math.Abs(total-1000) > 1e-6 {
			t.Fatalf("step %d: population %v, want 1000 (conservation)", i, total)
		}
		if s.S < -1e-9 || s.E < -1e-9 || s.I < -1e-9 || s.R < -1e-9 {
			t.Fatalf("step %d: negative compartment %+v", i, s)
		}
	}
	// Epidemic with R0=4 must grow then recede: R increases monotonically.
	if states[500].R <= states[0].R {
		t.Error("recovered compartment should grow")
	}
	if states[500].R < 500 {
		t.Errorf("final size %v too small for R0=4", states[500].R)
	}
}

func TestSimulateSEIRSubcriticalDiesOut(t *testing.T) {
	p := SEIRParams{Beta: 0.05, Sigma: 0.25, Gamma: 0.1, N: 1000} // R0 = 0.5
	init := SEIRState{S: 990, E: 0, I: 10, R: 0}
	states, err := SimulateSEIR(p, init, 1000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	last := states[len(states)-1]
	if last.I > 1e-3 {
		t.Errorf("subcritical epidemic should die out, I=%v", last.I)
	}
	if last.R > 100 {
		t.Errorf("subcritical final size %v too large", last.R)
	}
}

func TestSimulateSEIRValidation(t *testing.T) {
	p := SEIRParams{Beta: 0.4, Sigma: 0.25, Gamma: 0.1, N: 100}
	if _, err := SimulateSEIR(p, SEIRState{S: 100}, 0, 1); err == nil {
		t.Error("zero steps should error")
	}
	if _, err := SimulateSEIR(p, SEIRState{S: 100}, 10, 0); err == nil {
		t.Error("zero dt should error")
	}
	if _, err := SimulateSEIR(SEIRParams{}, SEIRState{}, 10, 1); err == nil {
		t.Error("invalid params should error")
	}
}

func TestFitSEIRBetaRecoversTruth(t *testing.T) {
	truth := SEIRParams{Beta: 0.35, Sigma: 0.2, Gamma: 0.12, N: 5000}
	init := SEIRState{S: 4950, E: 20, I: 30, R: 0}
	states, err := SimulateSEIR(truth, init, 300, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	observed := IncidenceSeries(truth, states, 0.5)
	got, err := FitSEIRBeta(observed, truth.Sigma, truth.Gamma, truth.N, init, 0.5, 0.01, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-truth.Beta)/truth.Beta > 0.02 {
		t.Errorf("fitted β = %v, want ≈%v", got, truth.Beta)
	}
}

func TestFitSEIRBetaValidation(t *testing.T) {
	if _, err := FitSEIRBeta([]float64{1}, 0.2, 0.1, 100, SEIRState{}, 1, 0, 1); err == nil {
		t.Error("short series should error")
	}
	if _, err := FitSEIRBeta([]float64{1, 2}, 0.2, 0.1, 100, SEIRState{}, 1, 1, 0.5); err == nil {
		t.Error("inverted range should error")
	}
}
