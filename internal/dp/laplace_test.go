package dp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLambertWm1Identity(t *testing.T) {
	// W₋₁(x)·e^{W₋₁(x)} = x across the domain.
	for _, x := range []float64{-1 / math.E, -0.367, -0.3, -0.2, -0.1, -0.01, -1e-4, -1e-8, -1e-15} {
		w := LambertWm1(x)
		if math.IsNaN(w) {
			t.Fatalf("W₋₁(%v) = NaN", x)
		}
		if w > -1+1e-9 {
			t.Errorf("W₋₁(%v) = %v, want ≤ -1", x, w)
		}
		got := w * math.Exp(w)
		if math.Abs(got-x) > 1e-9*math.Max(1, math.Abs(x)) {
			t.Errorf("W₋₁(%v): w·e^w = %v", x, got)
		}
	}
}

func TestLambertWm1OutOfDomain(t *testing.T) {
	for _, x := range []float64{0, 0.5, -0.5, 1} {
		if w := LambertWm1(x); !math.IsNaN(w) {
			t.Errorf("W₋₁(%v) = %v, want NaN", x, w)
		}
	}
	if w := LambertWm1(-1 / math.E); w != -1 {
		t.Errorf("W₋₁(-1/e) = %v, want -1", w)
	}
}

func TestPlanarLaplaceRadiusInvertsCDF(t *testing.T) {
	eps := 0.8
	cdf := func(r float64) float64 { return 1 - (1+eps*r)*math.Exp(-eps*r) }
	f := func(p float64) bool {
		p = math.Mod(math.Abs(p), 0.999)
		r := PlanarLaplaceRadius(p, eps)
		return math.Abs(cdf(r)-p) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPlanarLaplaceMeanRadius(t *testing.T) {
	// E[r] = 2/eps for the polar Laplace.
	rng := NewRand(42)
	eps := 0.5
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += PlanarLaplace(rng, eps).Norm()
	}
	want := 2 / eps
	if math.Abs(sum/n-want)/want > 0.03 {
		t.Errorf("mean radius = %v, want ≈%v", sum/n, want)
	}
}

func TestPlanarLaplaceIsotropic(t *testing.T) {
	rng := NewRand(9)
	eps := 1.0
	quad := [4]int{}
	const n = 40000
	for i := 0; i < n; i++ {
		v := PlanarLaplace(rng, eps)
		qi := 0
		if v.X > 0 {
			qi |= 1
		}
		if v.Y > 0 {
			qi |= 2
		}
		quad[qi]++
	}
	for i, q := range quad {
		if math.Abs(float64(q)/n-0.25) > 0.02 {
			t.Errorf("quadrant %d fraction = %v, want ≈0.25", i, float64(q)/n)
		}
	}
}

func TestPlanarLaplaceDensityNormalization(t *testing.T) {
	// ∫∫ density = ∫0∞ eps²/(2π) e^{-eps r} 2πr dr = 1.
	eps := 1.7
	var integral float64
	dr := 0.001
	for r := dr / 2; r < 30; r += dr {
		integral += PlanarLaplaceDensity(eps, r) * 2 * math.Pi * r * dr
	}
	if math.Abs(integral-1) > 1e-3 {
		t.Errorf("∫density = %v, want 1", integral)
	}
}

func TestPlanarLaplaceGeoIndistinguishability(t *testing.T) {
	// The density ratio between two true locations at distance d is
	// bounded by e^{eps·d} — the defining property of Geo-I.
	eps := 0.9
	for _, d := range []float64{0.5, 1, 2, 5} {
		for _, r := range []float64{0.1, 1, 3, 10} {
			// Worst case: output collinear with the two locations.
			ratio := PlanarLaplaceDensity(eps, r) / PlanarLaplaceDensity(eps, r+d)
			if ratio > math.Exp(eps*d)*(1+1e-12) {
				t.Errorf("ratio %v exceeds e^{εd} = %v", ratio, math.Exp(eps*d))
			}
		}
	}
}
