package geo

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestTriangulationSquareUniform(t *testing.T) {
	sq := []Point{{0, 0}, {2, 0}, {2, 2}, {0, 2}}
	tr := NewTriangulation(sq)
	if tr.isSeg {
		t.Fatal("square triangulation reported degenerate")
	}
	if math.Abs(tr.total-4) > 1e-12 {
		t.Fatalf("triangulation area = %v, want 4", tr.total)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	const n = 20000
	var sx, sy float64
	quad := [4]int{}
	for i := 0; i < n; i++ {
		p := tr.Sample(rng.Float64(), rng.Float64(), rng.Float64())
		if !PointInPolygon(p, sq) {
			t.Fatalf("sample %v outside polygon", p)
		}
		sx += p.X
		sy += p.Y
		qi := 0
		if p.X > 1 {
			qi |= 1
		}
		if p.Y > 1 {
			qi |= 2
		}
		quad[qi]++
	}
	if math.Abs(sx/n-1) > 0.03 || math.Abs(sy/n-1) > 0.03 {
		t.Errorf("sample mean = (%v, %v), want ≈(1,1)", sx/n, sy/n)
	}
	for i, q := range quad {
		frac := float64(q) / n
		if math.Abs(frac-0.25) > 0.02 {
			t.Errorf("quadrant %d has fraction %v, want ≈0.25", i, frac)
		}
	}
}

func TestTriangulationTriangle(t *testing.T) {
	tri := []Point{{0, 0}, {1, 0}, {0, 1}}
	tr := NewTriangulation(tri)
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 2000; i++ {
		p := tr.Sample(rng.Float64(), rng.Float64(), rng.Float64())
		if p.X < -1e-12 || p.Y < -1e-12 || p.X+p.Y > 1+1e-12 {
			t.Fatalf("sample %v outside triangle", p)
		}
	}
}

func TestTriangulationDegenerateSegment(t *testing.T) {
	seg := []Point{{0, 0}, {4, 0}}
	tr := NewTriangulation(seg)
	if !tr.isSeg {
		t.Fatal("segment should be degenerate")
	}
	rng := rand.New(rand.NewPCG(9, 1))
	var s float64
	for i := 0; i < 4000; i++ {
		p := tr.Sample(rng.Float64(), rng.Float64(), rng.Float64())
		if p.Y != 0 || p.X < 0 || p.X > 4 {
			t.Fatalf("segment sample %v off segment", p)
		}
		s += p.X
	}
	if math.Abs(s/4000-2) > 0.15 {
		t.Errorf("segment sample mean = %v, want ≈2", s/4000)
	}
}

func TestTriangulationSinglePointAndEmpty(t *testing.T) {
	tr := NewTriangulation([]Point{{3, 3}})
	if p := tr.Sample(0.4, 0.5, 0.6); p != Pt(3, 3) {
		t.Errorf("single-point sample = %v", p)
	}
	tre := NewTriangulation(nil)
	if p := tre.Sample(0.1, 0.2, 0.3); !p.IsZero() {
		t.Errorf("empty sample = %v, want origin fallback", p)
	}
}

func TestTriangulationCollinearPolygon(t *testing.T) {
	// A "polygon" with three collinear vertices must fall back to a segment.
	tr := NewTriangulation([]Point{{0, 0}, {1, 1}, {2, 2}})
	if !tr.isSeg {
		t.Fatal("collinear polygon should be degenerate")
	}
	p := tr.Sample(0.5, 0.5, 0.9)
	if math.Abs(p.X-p.Y) > 1e-12 || p.X < 0 || p.X > 2 {
		t.Errorf("collinear sample %v not on segment", p)
	}
}
