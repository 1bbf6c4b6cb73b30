package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(1, 2), Pt(3, -4)
	if got := p.Add(q); got != Pt(4, -2) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != Pt(-2, 6) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Neg(); got != Pt(-1, -2) {
		t.Errorf("Neg = %v", got)
	}
	if got := p.Dot(q); got != 3-8 {
		t.Errorf("Dot = %v", got)
	}
	if got := p.Cross(q); got != 1*(-4)-2*3 {
		t.Errorf("Cross = %v", got)
	}
}

func TestNormAndDist(t *testing.T) {
	if got := Pt(3, 4).Norm(); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := Pt(3, 4).Norm2(); got != 25 {
		t.Errorf("Norm2 = %v, want 25", got)
	}
	if got := Dist(Pt(1, 1), Pt(4, 5)); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
}

func TestLerp(t *testing.T) {
	p, q := Pt(0, 0), Pt(10, 20)
	if got := Lerp(p, q, 0); got != p {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := Lerp(p, q, 1); got != q {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := Lerp(p, q, 0.5); got != Pt(5, 10) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestIsZeroAndAlmostEqual(t *testing.T) {
	if !Pt(0, 0).IsZero() {
		t.Error("origin should be zero")
	}
	if Pt(0, 1e-300).IsZero() {
		t.Error("tiny nonzero should not be zero")
	}
	if !AlmostEqual(Pt(1, 1), Pt(1+1e-12, 1-1e-12), 1e-9) {
		t.Error("AlmostEqual should accept within tolerance")
	}
	if AlmostEqual(Pt(1, 1), Pt(1.1, 1), 1e-9) {
		t.Error("AlmostEqual should reject outside tolerance")
	}
}

func TestDistanceMetricProperties(t *testing.T) {
	// Property: Dist is a metric (symmetry, identity, triangle inequality).
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := Pt(clampf(ax), clampf(ay)), Pt(clampf(bx), clampf(by)), Pt(clampf(cx), clampf(cy))
		if Dist(a, b) != Dist(b, a) {
			return false
		}
		if Dist(a, a) != 0 {
			return false
		}
		return Dist(a, c) <= Dist(a, b)+Dist(b, c)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// clampf maps arbitrary float64s (incl. NaN/Inf from quick) into a sane range.
func clampf(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e6)
}
