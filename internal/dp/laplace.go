package dp

import (
	"math"
	"math/rand/v2"

	"github.com/pglp/panda/internal/geo"
)

// PlanarLaplace draws a noise vector from the planar (polar) Laplace
// distribution with parameter eps, i.e. density eps²/(2π)·exp(-eps·‖v‖).
// This is the mechanism of Geo-Indistinguishability (Andrés et al., CCS'13):
// adding the vector to a true location makes any two locations s, s'
// eps·d_E(s,s')-indistinguishable.
//
// The radius is drawn by inverting the radial CDF
// C(r) = 1 - (1 + eps·r)·exp(-eps·r) via the Lambert W₋₁ function.
func PlanarLaplace(rng *rand.Rand, eps float64) geo.Point {
	theta := rng.Float64() * 2 * math.Pi
	p := rng.Float64()
	r := PlanarLaplaceRadius(p, eps)
	return geo.Pt(r*math.Cos(theta), r*math.Sin(theta))
}

// PlanarLaplaceRadius returns C⁻¹(p) for the planar Laplace radial CDF.
// p must lie in [0, 1); eps must be positive.
func PlanarLaplaceRadius(p, eps float64) float64 {
	if p <= 0 {
		return 0
	}
	w := LambertWm1((p - 1) / math.E)
	return -(w + 1) / eps
}

// PlanarLaplaceDensity returns the density of the planar Laplace output at
// Euclidean distance d from the true location.
func PlanarLaplaceDensity(eps, d float64) float64 {
	return eps * eps / (2 * math.Pi) * math.Exp(-eps*d)
}

// LambertWm1 evaluates the secondary real branch W₋₁ of the Lambert W
// function on its domain [-1/e, 0). It satisfies W·e^W = x with W ≤ -1.
// Outside the domain it returns NaN.
func LambertWm1(x float64) float64 {
	const invE = -1.0 / math.E
	if x < invE-1e-15 || x >= 0 {
		return math.NaN()
	}
	if x <= invE {
		return -1
	}
	// Initial guess.
	var w float64
	if x < -0.25 {
		// Series around the branch point x = -1/e.
		eta := 2 * (1 + math.E*x)
		if eta < 0 {
			eta = 0
		}
		se := math.Sqrt(eta)
		w = -1 - se - eta/3 - se*eta*11.0/72.0
	} else {
		// Asymptotic for x → 0⁻: W₋₁(x) ≈ ln(-x) - ln(-ln(-x)).
		l1 := math.Log(-x)
		l2 := math.Log(-l1)
		w = l1 - l2 + l2/l1
	}
	// Halley iterations.
	for i := 0; i < 40; i++ {
		ew := math.Exp(w)
		f := w*ew - x
		if f == 0 {
			break
		}
		d1 := ew * (w + 1)
		d2 := ew * (w + 2)
		den := d1 - f*d2/(2*d1)
		if den == 0 {
			break
		}
		dw := f / den
		w -= dw
		if math.Abs(dw) <= 1e-14*(1+math.Abs(w)) {
			break
		}
	}
	return w
}
