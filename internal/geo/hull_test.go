package geo

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestConvexHullSquare(t *testing.T) {
	pts := []Point{{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0.5, 0.5}, {0.5, 0}}
	hull := ConvexHull(pts)
	if len(hull) != 4 {
		t.Fatalf("hull has %d vertices, want 4: %v", len(hull), hull)
	}
	if area := PolygonArea(hull); math.Abs(area-1) > 1e-12 {
		t.Errorf("hull area = %v, want 1", area)
	}
}

func TestConvexHullDegenerate(t *testing.T) {
	if h := ConvexHull(nil); h != nil {
		t.Errorf("hull of empty = %v", h)
	}
	if h := ConvexHull([]Point{{2, 3}}); len(h) != 1 {
		t.Errorf("hull of single point = %v", h)
	}
	if h := ConvexHull([]Point{{2, 3}, {2, 3}, {2, 3}}); len(h) != 1 {
		t.Errorf("hull of repeated point = %v", h)
	}
	h := ConvexHull([]Point{{0, 0}, {1, 1}, {2, 2}, {3, 3}})
	if len(h) != 2 {
		t.Fatalf("hull of collinear = %v, want 2 extremes", h)
	}
}

func TestConvexHullIsCCWAndConvex(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 50; trial++ {
		pts := make([]Point, 30)
		for i := range pts {
			pts[i] = Pt(rng.Float64()*10-5, rng.Float64()*10-5)
		}
		hull := ConvexHull(pts)
		if len(hull) < 3 {
			t.Fatalf("random hull degenerate: %v", hull)
		}
		for i := range hull {
			a, b, c := hull[i], hull[(i+1)%len(hull)], hull[(i+2)%len(hull)]
			if b.Sub(a).Cross(c.Sub(b)) <= 0 {
				t.Fatalf("hull not strictly CCW at %d: %v", i, hull)
			}
		}
		// All inputs inside the hull.
		for _, p := range pts {
			if !PointInPolygon(p, hull) {
				t.Fatalf("input point %v outside hull", p)
			}
		}
	}
}

func TestSymmetrize(t *testing.T) {
	pts := Symmetrize([]Point{{1, 2}})
	if len(pts) != 2 || pts[1] != Pt(-1, -2) {
		t.Errorf("Symmetrize = %v", pts)
	}
	// Hull of a symmetrized set is origin-symmetric.
	hull := ConvexHull(Symmetrize([]Point{{1, 0}, {0, 1}, {2, 3}}))
	for _, p := range hull {
		if !PointInPolygon(p.Neg(), hull) {
			t.Errorf("hull not symmetric: %v missing", p.Neg())
		}
	}
}

func TestPolygonAreaAndCentroid(t *testing.T) {
	sq := []Point{{0, 0}, {2, 0}, {2, 2}, {0, 2}}
	if a := PolygonArea(sq); a != 4 {
		t.Errorf("area = %v, want 4", a)
	}
	tri := []Point{{0, 0}, {3, 0}, {0, 3}}
	if a := PolygonArea(tri); a != 4.5 {
		t.Errorf("triangle area = %v, want 4.5", a)
	}
}

func TestSecondMomentUnitSquareAtOrigin(t *testing.T) {
	// Square [-1,1]² has E[x²] = E[y²] = 1/3, E[xy] = 0.
	sq := []Point{{-1, -1}, {1, -1}, {1, 1}, {-1, 1}}
	m := SecondMoment(sq)
	if math.Abs(m.A-1.0/3) > 1e-12 || math.Abs(m.D-1.0/3) > 1e-12 || math.Abs(m.B) > 1e-12 {
		t.Errorf("SecondMoment = %v, want diag(1/3, 1/3)", m)
	}
}

func TestPointInPolygon(t *testing.T) {
	sq := []Point{{0, 0}, {2, 0}, {2, 2}, {0, 2}}
	if !PointInPolygon(Pt(1, 1), sq) {
		t.Error("interior point reported outside")
	}
	if !PointInPolygon(Pt(0, 0), sq) {
		t.Error("vertex reported outside")
	}
	if !PointInPolygon(Pt(1, 0), sq) {
		t.Error("boundary point reported outside")
	}
	if PointInPolygon(Pt(3, 1), sq) {
		t.Error("exterior point reported inside")
	}
	if PointInPolygon(Pt(1, 1), sq[:2]) {
		t.Error("degenerate polygon should contain nothing")
	}
}

func TestGaugeNormSquare(t *testing.T) {
	// Unit ball of L∞: square [-1,1]². Gauge = L∞ norm.
	sq := []Point{{-1, -1}, {1, -1}, {1, 1}, {-1, 1}}
	cases := []struct {
		v    Point
		want float64
	}{
		{Pt(0, 0), 0},
		{Pt(1, 0), 1},
		{Pt(2, 0), 2},
		{Pt(0.5, 0.25), 0.5},
		{Pt(1, 1), 1},
		{Pt(-3, 2), 3},
	}
	for _, c := range cases {
		if got := GaugeNorm(sq, c.v); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("GaugeNorm(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestGaugeNormDiamond(t *testing.T) {
	// Unit ball of L1: diamond. Gauge = L1 norm.
	d := []Point{{1, 0}, {0, 1}, {-1, 0}, {0, -1}}
	for _, c := range []struct {
		v    Point
		want float64
	}{
		{Pt(0.5, 0.25), 0.75},
		{Pt(1, 1), 2},
		{Pt(-0.3, 0.4), 0.7},
	} {
		if got := GaugeNorm(d, c.v); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("GaugeNorm(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestGaugeNormSegment(t *testing.T) {
	seg := []Point{{-2, 0}, {2, 0}}
	if got := GaugeNorm(seg, Pt(1, 0)); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("segment gauge = %v, want 0.5", got)
	}
	if got := GaugeNorm(seg, Pt(0, 1)); !math.IsInf(got, 1) {
		t.Errorf("perpendicular gauge = %v, want +Inf", got)
	}
}

func TestGaugeNormScaling(t *testing.T) {
	// Property: gauge is positively homogeneous: ‖kv‖ = k‖v‖ for k>0.
	sq := []Point{{-1, -2}, {3, -1}, {2, 2}, {-2, 1}}
	hull := ConvexHull(sq)
	f := func(vx, vy, k float64) bool {
		vx, vy = clampf(vx)/1e3, clampf(vy)/1e3
		k = math.Abs(clampf(k))/1e5 + 0.1
		v := Pt(vx, vy)
		if v.IsZero() {
			return true
		}
		g1 := GaugeNorm(hull, v)
		g2 := GaugeNorm(hull, v.Scale(k))
		return math.Abs(g2-k*g1) <= 1e-6*math.Max(1, g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGaugeNormTriangleInequality(t *testing.T) {
	hull := ConvexHull(Symmetrize([]Point{{1, 0.5}, {0.2, 1}, {1.5, -0.3}}))
	rng := rand.New(rand.NewPCG(7, 9))
	for i := 0; i < 200; i++ {
		u := Pt(rng.Float64()*4-2, rng.Float64()*4-2)
		v := Pt(rng.Float64()*4-2, rng.Float64()*4-2)
		gu, gv, guv := GaugeNorm(hull, u), GaugeNorm(hull, v), GaugeNorm(hull, u.Add(v))
		if guv > gu+gv+1e-9 {
			t.Fatalf("triangle inequality violated: %v + %v < %v", gu, gv, guv)
		}
	}
}

func TestGaugeNormBoundaryIsOne(t *testing.T) {
	hull := ConvexHull(Symmetrize([]Point{{2, 1}, {1, 2}, {-1, 1.5}}))
	for _, p := range hull {
		if g := GaugeNorm(hull, p); math.Abs(g-1) > 1e-9 {
			t.Errorf("gauge of hull vertex %v = %v, want 1", p, g)
		}
	}
}
