package epidemic

import (
	"fmt"
	"math"
)

// SEIRParams are the rates of the SEIR model dS/dt = -βSI/N,
// dE/dt = βSI/N - σE, dI/dt = σE - γI, dR/dt = γI (Li & Muldowney 1995,
// the paper's reference [11]).
type SEIRParams struct {
	Beta  float64 // transmission rate
	Sigma float64 // incubation rate (1/latent period)
	Gamma float64 // recovery rate (1/infectious period)
	N     float64 // population size
}

// Validate checks the parameters.
func (p SEIRParams) Validate() error {
	if p.Beta < 0 || p.Sigma <= 0 || p.Gamma <= 0 || p.N <= 0 {
		return fmt.Errorf("epidemic: invalid SEIR params %+v", p)
	}
	if math.IsNaN(p.Beta + p.Sigma + p.Gamma + p.N) {
		return fmt.Errorf("epidemic: NaN SEIR params %+v", p)
	}
	return nil
}

// SEIRState is a compartment occupancy snapshot.
type SEIRState struct {
	S, E, I, R float64
}

// deriv computes the SEIR vector field.
func deriv(p SEIRParams, s SEIRState) SEIRState {
	force := p.Beta * s.S * s.I / p.N
	return SEIRState{
		S: -force,
		E: force - p.Sigma*s.E,
		I: p.Sigma*s.E - p.Gamma*s.I,
		R: p.Gamma * s.I,
	}
}

func axpy(a SEIRState, k float64, b SEIRState) SEIRState {
	return SEIRState{a.S + k*b.S, a.E + k*b.E, a.I + k*b.I, a.R + k*b.R}
}

// SimulateSEIR integrates the model with classic RK4, returning steps+1
// states (including the initial one) at intervals of dt.
func SimulateSEIR(p SEIRParams, init SEIRState, steps int, dt float64) ([]SEIRState, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if steps <= 0 || dt <= 0 {
		return nil, fmt.Errorf("epidemic: steps and dt must be positive, got %d, %v", steps, dt)
	}
	out := make([]SEIRState, steps+1)
	out[0] = init
	cur := init
	for i := 1; i <= steps; i++ {
		k1 := deriv(p, cur)
		k2 := deriv(p, axpy(cur, dt/2, k1))
		k3 := deriv(p, axpy(cur, dt/2, k2))
		k4 := deriv(p, axpy(cur, dt, k3))
		cur = SEIRState{
			S: cur.S + dt/6*(k1.S+2*k2.S+2*k3.S+k4.S),
			E: cur.E + dt/6*(k1.E+2*k2.E+2*k3.E+k4.E),
			I: cur.I + dt/6*(k1.I+2*k2.I+2*k3.I+k4.I),
			R: cur.R + dt/6*(k1.R+2*k2.R+2*k3.R+k4.R),
		}
		out[i] = cur
	}
	return out, nil
}

// IncidenceSeries extracts the new-infection flow σ·E·dt per step from a
// simulated trajectory — the series observable as case counts.
func IncidenceSeries(p SEIRParams, states []SEIRState, dt float64) []float64 {
	out := make([]float64, len(states))
	for i, s := range states {
		out[i] = p.Sigma * s.E * dt
	}
	return out
}

// FitSEIRBeta recovers the transmission rate β (and hence R0 = β/γ) from an
// observed incidence series by golden-section search over [betaLo, betaHi],
// minimising the sum of squared errors against RK4-simulated incidence
// with known σ, γ, N and initial state.
func FitSEIRBeta(observed []float64, sigma, gamma float64, n float64, init SEIRState, dt float64, betaLo, betaHi float64) (float64, error) {
	if len(observed) < 2 {
		return 0, fmt.Errorf("epidemic: need at least 2 incidence points, got %d", len(observed))
	}
	if betaLo < 0 || betaHi <= betaLo {
		return 0, fmt.Errorf("epidemic: invalid beta range [%v, %v]", betaLo, betaHi)
	}
	steps := len(observed) - 1
	sse := func(beta float64) float64 {
		p := SEIRParams{Beta: beta, Sigma: sigma, Gamma: gamma, N: n}
		states, err := SimulateSEIR(p, init, steps, dt)
		if err != nil {
			return math.Inf(1)
		}
		sim := IncidenceSeries(p, states, dt)
		var s float64
		for i := range observed {
			d := observed[i] - sim[i]
			s += d * d
		}
		return s
	}
	// Golden-section search (unimodal in β for these dynamics).
	const phi = 0.6180339887498949
	a, b := betaLo, betaHi
	c := b - phi*(b-a)
	d := a + phi*(b-a)
	fc, fd := sse(c), sse(d)
	for i := 0; i < 200 && b-a > 1e-9*(1+b); i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - phi*(b-a)
			fc = sse(c)
		} else {
			a, c, fc = c, d, fd
			d = a + phi*(b-a)
			fd = sse(d)
		}
	}
	return (a + b) / 2, nil
}
