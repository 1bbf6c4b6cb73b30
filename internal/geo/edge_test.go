package geo

import (
	"math"
	"testing"
)

func TestMustGridPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustGrid should panic on invalid dimensions")
		}
	}()
	MustGrid(0, 4, 1)
}

func TestEigenSymNearDegenerate(t *testing.T) {
	// Equal eigenvalues (scalar matrix): any orthonormal basis works.
	l1, l2, v1, v2 := (Mat2{A: 2, D: 2}).EigenSym()
	if l1 != 2 || l2 != 2 {
		t.Errorf("eigenvalues = %v, %v", l1, l2)
	}
	if math.Abs(v1.Norm()-1) > 1e-12 || math.Abs(v2.Norm()-1) > 1e-12 {
		t.Error("eigenvectors not unit length")
	}
	if math.Abs(v1.Dot(v2)) > 1e-9 {
		t.Error("eigenvectors not orthogonal")
	}
	// A < D branch with zero off-diagonal.
	_, _, u1, u2 := (Mat2{A: 1, D: 3}).EigenSym()
	if math.Abs(math.Abs(u1.Y)-1) > 1e-12 {
		t.Errorf("dominant eigenvector should be ±(0,1), got %v", u1)
	}
	if math.Abs(math.Abs(u2.X)-1) > 1e-12 {
		t.Errorf("minor eigenvector should be ±(1,0), got %v", u2)
	}
}

func TestGaugeNormDegenerateBodies(t *testing.T) {
	// Empty body.
	if g := GaugeNorm(nil, Pt(1, 0)); !math.IsInf(g, 1) {
		t.Errorf("empty body gauge = %v", g)
	}
	// Single point body.
	if g := GaugeNorm([]Point{{2, 0}}, Pt(1, 0)); math.Abs(g-0.5) > 1e-9 {
		t.Errorf("point body gauge = %v, want 0.5", g)
	}
	if g := GaugeNorm([]Point{{2, 0}}, Pt(0, 1)); !math.IsInf(g, 1) {
		t.Errorf("off-direction point gauge = %v", g)
	}
	if g := GaugeNorm([]Point{{0, 0}}, Pt(1, 0)); !math.IsInf(g, 1) {
		t.Errorf("origin point gauge = %v", g)
	}
	if g := GaugeNorm([]Point{{2, 0}}, Pt(-1, 0)); !math.IsInf(g, 1) {
		t.Errorf("negative-direction point gauge = %v (point body is not symmetric)", g)
	}
}

func TestSegmentGaugeThroughOrigin(t *testing.T) {
	// Segment through the origin: collinear vectors resolve, others don't.
	a, b := Pt(-3, 0), Pt(3, 0)
	if g := segmentGauge(a, b, Pt(1, 0)); math.Abs(g-1.0/3) > 1e-9 {
		t.Errorf("gauge = %v, want 1/3", g)
	}
	if g := segmentGauge(a, b, Pt(0, 1)); !math.IsInf(g, 1) {
		t.Errorf("perpendicular gauge = %v", g)
	}
	if g := segmentGauge(a, b, Point{}); g != 0 {
		t.Errorf("zero vector gauge = %v", g)
	}
	// Off-origin segment reachable only on one side.
	c, d := Pt(1, 1), Pt(3, 1)
	if g := segmentGauge(c, d, Pt(2, 1)); math.Abs(g-1) > 1e-9 {
		t.Errorf("gauge to midpoint = %v, want 1", g)
	}
	if g := segmentGauge(c, d, Pt(-2, -1)); !math.IsInf(g, 1) {
		t.Errorf("wrong-side gauge = %v", g)
	}
	if g := segmentGauge(c, d, Pt(10, 1)); !math.IsInf(g, 1) {
		t.Errorf("beyond-endpoint gauge = %v", g)
	}
}

func TestSecondMomentDegenerate(t *testing.T) {
	if m := SecondMoment([]Point{{1, 1}, {2, 2}}); m != (Mat2{}) {
		t.Errorf("two-point moment = %v", m)
	}
	if m := SecondMoment([]Point{{0, 0}, {1, 1}, {2, 2}}); m != (Mat2{}) {
		t.Errorf("collinear moment = %v", m)
	}
}
