package geo

import "math"

// Triangulation is an area-weighted fan triangulation of a convex polygon,
// prepared once so that uniform points can be drawn with three uniform
// variates per sample. Sampling itself takes the variates as arguments so
// that this package stays free of randomness (callers own their RNG).
type Triangulation struct {
	apex   Point
	tris   [][2]Point // (b, c); triangle is (apex, b, c)
	cumul  []float64  // cumulative normalized areas
	total  float64
	degSeg [2]Point // fallback segment for zero-area polygons
	isSeg  bool
}

// NewTriangulation builds the fan triangulation of a convex CCW polygon.
// Degenerate polygons (area 0) fall back to their bounding segment so that
// sampling still returns points of the body.
func NewTriangulation(poly []Point) *Triangulation {
	t := &Triangulation{}
	if len(poly) == 0 {
		t.isSeg = true
		return t
	}
	if len(poly) == 1 {
		t.isSeg = true
		t.degSeg = [2]Point{poly[0], poly[0]}
		return t
	}
	if len(poly) == 2 || PolygonArea(poly) < 1e-18 {
		lo, hi := poly[0], poly[0]
		for _, p := range poly {
			if p.X < lo.X || (p.X == lo.X && p.Y < lo.Y) {
				lo = p
			}
			if p.X > hi.X || (p.X == hi.X && p.Y > hi.Y) {
				hi = p
			}
		}
		t.isSeg = true
		t.degSeg = [2]Point{lo, hi}
		return t
	}
	t.apex = poly[0]
	var cum float64
	for i := 1; i+1 < len(poly); i++ {
		b, c := poly[i], poly[i+1]
		area := math.Abs(b.Sub(t.apex).Cross(c.Sub(t.apex))) / 2
		if area <= 0 {
			continue
		}
		cum += area
		t.tris = append(t.tris, [2]Point{b, c})
		t.cumul = append(t.cumul, cum)
	}
	t.total = cum
	if len(t.tris) == 0 {
		t.isSeg = true
		t.degSeg = [2]Point{poly[0], poly[len(poly)-1]}
	}
	return t
}

// Sample maps three independent Uniform(0,1) variates to a point uniformly
// distributed over the polygon (u1 picks the triangle, u2/u3 the barycentric
// coordinates). For degenerate polygons the point is uniform on the segment.
func (t *Triangulation) Sample(u1, u2, u3 float64) Point {
	if t.isSeg {
		return Lerp(t.degSeg[0], t.degSeg[1], u2)
	}
	// Binary search the triangle whose cumulative area covers u1.
	target := u1 * t.total
	lo, hi := 0, len(t.cumul)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if t.cumul[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	b, c := t.tris[lo][0], t.tris[lo][1]
	// Uniform in triangle via the reflection trick.
	if u2+u3 > 1 {
		u2, u3 = 1-u2, 1-u3
	}
	return t.apex.
		Add(b.Sub(t.apex).Scale(u2)).
		Add(c.Sub(t.apex).Scale(u3))
}
