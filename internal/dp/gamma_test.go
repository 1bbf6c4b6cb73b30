package dp

import (
	"math"
	"testing"
)

func TestGammaIntMoments(t *testing.T) {
	rng := NewRand(3)
	const n = 150000
	k, scale := 3, 2.0
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		x := GammaInt(rng, k, scale)
		if x < 0 {
			t.Fatal("gamma sample negative")
		}
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	wantMean := float64(k) * scale
	wantVar := float64(k) * scale * scale
	if math.Abs(mean-wantMean)/wantMean > 0.02 {
		t.Errorf("mean = %v, want ≈%v", mean, wantMean)
	}
	if math.Abs(variance-wantVar)/wantVar > 0.05 {
		t.Errorf("variance = %v, want ≈%v", variance, wantVar)
	}
}

func TestGammaIntZeroShape(t *testing.T) {
	rng := NewRand(1)
	if got := GammaInt(rng, 0, 1); got != 0 {
		t.Errorf("GammaInt(k=0) = %v, want 0", got)
	}
}
