package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMat2Apply(t *testing.T) {
	m := Mat2{A: 1, B: 2, C: 3, D: 4}
	if got := m.Apply(Pt(1, 1)); got != Pt(3, 7) {
		t.Errorf("Apply = %v, want (3,7)", got)
	}
	if got := Identity2.Apply(Pt(5, -6)); got != Pt(5, -6) {
		t.Errorf("identity Apply = %v", got)
	}
}

func TestMat2MulAndTranspose(t *testing.T) {
	m := Mat2{A: 1, B: 2, C: 3, D: 4}
	n := Mat2{A: 0, B: 1, C: 1, D: 0}
	got := m.Mul(n)
	want := Mat2{A: 2, B: 1, C: 4, D: 3}
	if got != want {
		t.Errorf("Mul = %v, want %v", got, want)
	}
}

func TestMat2Inverse(t *testing.T) {
	m := Mat2{A: 2, B: 1, C: 1, D: 1}
	inv, err := m.Inverse()
	if err != nil {
		t.Fatalf("Inverse: %v", err)
	}
	id := m.Mul(inv)
	if math.Abs(id.A-1) > 1e-12 || math.Abs(id.D-1) > 1e-12 ||
		math.Abs(id.B) > 1e-12 || math.Abs(id.C) > 1e-12 {
		t.Errorf("m*m⁻¹ = %v, want identity", id)
	}
}

func TestMat2InverseSingular(t *testing.T) {
	if _, err := (Mat2{A: 1, B: 2, C: 2, D: 4}).Inverse(); err == nil {
		t.Error("expected ErrSingular for rank-1 matrix")
	}
}

func TestEigenSymDiagonal(t *testing.T) {
	m := Mat2{A: 3, D: 1}
	l1, l2, v1, v2 := m.EigenSym()
	if l1 != 3 || l2 != 1 {
		t.Errorf("eigenvalues = %v, %v", l1, l2)
	}
	if math.Abs(math.Abs(v1.X)-1) > 1e-12 || math.Abs(v1.Y) > 1e-12 {
		t.Errorf("v1 = %v, want ±(1,0)", v1)
	}
	if math.Abs(math.Abs(v2.Y)-1) > 1e-12 || math.Abs(v2.X) > 1e-12 {
		t.Errorf("v2 = %v, want ±(0,1)", v2)
	}
}

func TestEigenSymReconstruction(t *testing.T) {
	f := func(a, b, d float64) bool {
		a, b, d = clampf(a), clampf(b), clampf(d)
		m := Mat2{A: a, B: b, C: b, D: d}
		l1, l2, v1, v2 := m.EigenSym()
		if l1 < l2 {
			return false
		}
		r := fromEigen(l1, l2, v1, v2)
		scale := math.Max(1, math.Abs(a)+math.Abs(b)+math.Abs(d))
		return math.Abs(r.A-m.A) < 1e-8*scale &&
			math.Abs(r.B-m.B) < 1e-8*scale &&
			math.Abs(r.D-m.D) < 1e-8*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestInvSqrtSym(t *testing.T) {
	m := Mat2{A: 4, B: 1, C: 1, D: 2}
	is, err := m.InvSqrtSym()
	if err != nil {
		t.Fatalf("InvSqrtSym: %v", err)
	}
	// is * m * is should be the identity.
	r := is.Mul(m).Mul(is)
	if math.Abs(r.A-1) > 1e-9 || math.Abs(r.D-1) > 1e-9 ||
		math.Abs(r.B) > 1e-9 || math.Abs(r.C) > 1e-9 {
		t.Errorf("M^-1/2 M M^-1/2 = %v, want identity", r)
	}
}

func TestInvSqrtSymSingular(t *testing.T) {
	if _, err := (Mat2{A: 1}).InvSqrtSym(); err == nil {
		t.Error("expected error for PSD-but-singular matrix")
	}
}
