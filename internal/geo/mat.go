package geo

import (
	"errors"
	"fmt"
	"math"
)

// Mat2 is a 2x2 matrix [[A B]; [C D]].
type Mat2 struct {
	A, B, C, D float64
}

// Identity2 is the 2x2 identity matrix.
var Identity2 = Mat2{A: 1, D: 1}

// ErrSingular is returned when inverting a (numerically) singular matrix.
var ErrSingular = errors.New("geo: singular matrix")

// Apply returns m*v.
func (m Mat2) Apply(v Point) Point {
	return Point{m.A*v.X + m.B*v.Y, m.C*v.X + m.D*v.Y}
}

// Mul returns the matrix product m*n.
func (m Mat2) Mul(n Mat2) Mat2 {
	return Mat2{
		A: m.A*n.A + m.B*n.C,
		B: m.A*n.B + m.B*n.D,
		C: m.C*n.A + m.D*n.C,
		D: m.C*n.B + m.D*n.D,
	}
}

// Det returns the determinant of m.
func (m Mat2) Det() float64 { return m.A*m.D - m.B*m.C }

// Inverse returns m⁻¹, or ErrSingular when |det| is below 1e-18.
func (m Mat2) Inverse() (Mat2, error) {
	det := m.Det()
	if math.Abs(det) < 1e-18 {
		return Mat2{}, ErrSingular
	}
	inv := 1 / det
	return Mat2{A: m.D * inv, B: -m.B * inv, C: -m.C * inv, D: m.A * inv}, nil
}

// String implements fmt.Stringer.
func (m Mat2) String() string {
	return fmt.Sprintf("[[%.4g %.4g] [%.4g %.4g]]", m.A, m.B, m.C, m.D)
}

// EigenSym computes the eigendecomposition of a symmetric matrix
// (m.B == m.C is assumed; the mean of the off-diagonals is used).
// It returns eigenvalues l1 >= l2 with corresponding unit eigenvectors.
func (m Mat2) EigenSym() (l1, l2 float64, v1, v2 Point) {
	b := (m.B + m.C) / 2
	tr := m.A + m.D
	det := m.A*m.D - b*b
	disc := math.Sqrt(math.Max(0, tr*tr/4-det))
	l1 = tr/2 + disc
	l2 = tr/2 - disc
	// Eigenvector for l1: (b, l1-A) or (l1-D, b); pick the better-conditioned.
	if math.Abs(b) > 1e-300 {
		v1 = Point{b, l1 - m.A}
		v2 = Point{b, l2 - m.A}
	} else if m.A >= m.D {
		v1, v2 = Point{1, 0}, Point{0, 1}
	} else {
		v1, v2 = Point{0, 1}, Point{1, 0}
	}
	if n := v1.Norm(); n > 0 {
		v1 = v1.Scale(1 / n)
	} else {
		v1 = Point{1, 0}
	}
	if n := v2.Norm(); n > 0 {
		v2 = v2.Scale(1 / n)
	} else {
		v2 = Point{0, 1}
	}
	return l1, l2, v1, v2
}

// InvSqrtSym returns M^(-1/2) for a symmetric positive-definite matrix,
// or ErrSingular if an eigenvalue is not strictly positive.
func (m Mat2) InvSqrtSym() (Mat2, error) {
	l1, l2, v1, v2 := m.EigenSym()
	if l1 <= 1e-18 || l2 <= 1e-18 {
		return Mat2{}, ErrSingular
	}
	return fromEigen(1/math.Sqrt(l1), 1/math.Sqrt(l2), v1, v2), nil
}

// fromEigen reconstructs s1*v1*v1ᵀ + s2*v2*v2ᵀ.
func fromEigen(s1, s2 float64, v1, v2 Point) Mat2 {
	return Mat2{
		A: s1*v1.X*v1.X + s2*v2.X*v2.X,
		B: s1*v1.X*v1.Y + s2*v2.X*v2.Y,
		C: s1*v1.Y*v1.X + s2*v2.Y*v2.X,
		D: s1*v1.Y*v1.Y + s2*v2.Y*v2.Y,
	}
}
