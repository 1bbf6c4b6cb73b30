package geo

import (
	"math"
	"sort"
)

// ConvexHull returns the convex hull of pts as a counter-clockwise polygon
// without a repeated closing vertex, using Andrew's monotone chain.
// Interior and collinear boundary points are dropped. Degenerate inputs
// yield degenerate hulls: a single point for coincident inputs, the two
// extreme endpoints for collinear inputs.
func ConvexHull(pts []Point) []Point {
	if len(pts) == 0 {
		return nil
	}
	ps := make([]Point, len(pts))
	copy(ps, pts)
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].X != ps[j].X {
			return ps[i].X < ps[j].X
		}
		return ps[i].Y < ps[j].Y
	})
	// Deduplicate.
	uniq := ps[:1]
	for _, p := range ps[1:] {
		if p != uniq[len(uniq)-1] {
			uniq = append(uniq, p)
		}
	}
	ps = uniq
	if len(ps) == 1 {
		return []Point{ps[0]}
	}
	cross := func(o, a, b Point) float64 { return a.Sub(o).Cross(b.Sub(o)) }
	var lower, upper []Point
	for _, p := range ps {
		for len(lower) >= 2 && cross(lower[len(lower)-2], lower[len(lower)-1], p) <= 0 {
			lower = lower[:len(lower)-1]
		}
		lower = append(lower, p)
	}
	for i := len(ps) - 1; i >= 0; i-- {
		p := ps[i]
		for len(upper) >= 2 && cross(upper[len(upper)-2], upper[len(upper)-1], p) <= 0 {
			upper = upper[:len(upper)-1]
		}
		upper = append(upper, p)
	}
	hull := append(lower[:len(lower)-1], upper[:len(upper)-1]...)
	return hull
}

// Symmetrize returns pts ∪ {-p : p ∈ pts}. The convex hull of a symmetrized
// set is an origin-symmetric body, as required for a sensitivity hull.
func Symmetrize(pts []Point) []Point {
	out := make([]Point, 0, 2*len(pts))
	for _, p := range pts {
		out = append(out, p, p.Neg())
	}
	return out
}

// PolygonArea returns the (positive) area of a simple polygon given in CCW
// or CW order.
func PolygonArea(poly []Point) float64 {
	if len(poly) < 3 {
		return 0
	}
	var s float64
	for i, p := range poly {
		q := poly[(i+1)%len(poly)]
		s += p.Cross(q)
	}
	return math.Abs(s) / 2
}

// SecondMoment returns the second-moment matrix M = E[xxᵀ] of the uniform
// distribution over a polygon that contains the origin (star-shaped about
// the origin suffices; convex bodies containing the origin always qualify).
// For an origin-symmetric body this is the covariance matrix.
func SecondMoment(poly []Point) Mat2 {
	if len(poly) < 3 {
		return Mat2{}
	}
	var ixx, iyy, ixy, area float64
	for i, p := range poly {
		q := poly[(i+1)%len(poly)]
		w := p.Cross(q) // signed, fan triangle (0, p, q)
		area += w / 2
		ixx += w * (p.X*p.X + p.X*q.X + q.X*q.X) / 12
		iyy += w * (p.Y*p.Y + p.Y*q.Y + q.Y*q.Y) / 12
		ixy += w * (2*p.X*p.Y + p.X*q.Y + q.X*p.Y + 2*q.X*q.Y) / 24
	}
	if math.Abs(area) < 1e-18 {
		return Mat2{}
	}
	return Mat2{A: ixx / area, B: ixy / area, C: ixy / area, D: iyy / area}
}

// PointInPolygon reports whether p lies inside (or on the boundary of) a
// convex CCW polygon.
func PointInPolygon(p Point, poly []Point) bool {
	if len(poly) < 3 {
		return false
	}
	const tol = 1e-12
	for i, a := range poly {
		b := poly[(i+1)%len(poly)]
		if b.Sub(a).Cross(p.Sub(a)) < -tol {
			return false
		}
	}
	return true
}

// ApplyMat maps every vertex of poly through m.
func ApplyMat(m Mat2, poly []Point) []Point {
	out := make([]Point, len(poly))
	for i, p := range poly {
		out[i] = m.Apply(p)
	}
	return out
}

// GaugeNorm computes the Minkowski gauge ‖v‖_K = inf{λ > 0 : v ∈ λK} for a
// convex CCW polygon K that strictly contains the origin. It returns 0 for
// the zero vector and +Inf when the polygon is degenerate in the direction
// of v (e.g. a segment not parallel to v).
func GaugeNorm(poly []Point, v Point) float64 {
	if v.IsZero() {
		return 0
	}
	switch len(poly) {
	case 0:
		return math.Inf(1)
	case 1:
		// K = {p}: v ∈ λK iff v = λp.
		p := poly[0]
		if p.IsZero() {
			return math.Inf(1)
		}
		if math.Abs(v.Cross(p)) > 1e-9*v.Norm()*p.Norm() {
			return math.Inf(1)
		}
		t := v.Dot(p) / p.Norm2()
		if t <= 0 {
			return math.Inf(1)
		}
		return t
	case 2:
		// K = segment [a, b]; for symmetric sensitivity hulls b == -a.
		return segmentGauge(poly[0], poly[1], v)
	}
	// General polygon: find the edge crossed by the ray {t·v : t > 0}. The
	// exit point is t*·v and ‖v‖_K = 1/t*.
	best := math.Inf(1)
	for i, a := range poly {
		b := poly[(i+1)%len(poly)]
		e := b.Sub(a)
		den := v.Cross(e)
		if math.Abs(den) < 1e-18 {
			continue // ray parallel to this edge
		}
		t := a.Cross(e) / den
		if t <= 1e-15 {
			continue // intersection behind or at the origin
		}
		// Verify the intersection lies within the edge segment.
		ip := v.Scale(t)
		var s float64
		if math.Abs(e.X) >= math.Abs(e.Y) {
			s = (ip.X - a.X) / e.X
		} else {
			s = (ip.Y - a.Y) / e.Y
		}
		if s < -1e-9 || s > 1+1e-9 {
			continue
		}
		if l := 1 / t; l < best {
			best = l
		}
	}
	return best
}

// segmentGauge handles the 2-vertex case of GaugeNorm; split out for tests.
func segmentGauge(a, b, v Point) float64 {
	if v.IsZero() {
		return 0
	}
	d := b.Sub(a)
	// The segment [a,b] seen from the origin: v ∈ λ[a,b] iff v/λ on segment.
	// Collinearity with the supporting line is required.
	n := Point{-d.Y, d.X} // normal of the line through a,b
	da := a.Dot(n)
	dv := v.Dot(n)
	if math.Abs(da) < 1e-18 {
		// Line passes through origin: v must be on it.
		if math.Abs(v.Cross(d)) > 1e-9*(v.Norm()*d.Norm()+1e-300) {
			return math.Inf(1)
		}
		lam := math.Inf(1)
		for _, e := range []Point{a, b} {
			if e.IsZero() {
				continue
			}
			if v.Dot(e) > 0 {
				lam = math.Min(lam, v.Norm()/e.Norm())
			}
		}
		return lam
	}
	lam := dv / da
	if lam <= 0 {
		return math.Inf(1)
	}
	p := v.Scale(1 / lam) // point on the supporting line
	var s float64
	if math.Abs(d.X) >= math.Abs(d.Y) {
		s = (p.X - a.X) / d.X
	} else {
		s = (p.Y - a.Y) / d.Y
	}
	if s < -1e-9 || s > 1+1e-9 {
		return math.Inf(1)
	}
	return lam
}
