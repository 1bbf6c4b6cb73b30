package dp

import (
	"math"
	"math/rand/v2"
)

// GammaInt draws from the Gamma distribution with integer shape k and the
// given scale (mean k·scale), as the sum of k independent exponentials.
// The K-norm mechanism in d dimensions needs shape d+1 (= 3 in the plane).
func GammaInt(rng *rand.Rand, k int, scale float64) float64 {
	if k <= 0 {
		return 0
	}
	// Product of uniforms avoids k separate Log calls.
	prod := 1.0
	for i := 0; i < k; i++ {
		u := 1 - rng.Float64() // (0, 1]
		prod *= u
	}
	return -scale * math.Log(prod)
}
