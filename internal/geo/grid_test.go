package geo

import (
	"testing"
	"testing/quick"
)

func TestNewGridValidation(t *testing.T) {
	cases := []struct {
		rows, cols int
		size       float64
		ok         bool
	}{
		{4, 4, 1, true},
		{0, 4, 1, false},
		{4, 0, 1, false},
		{-1, 4, 1, false},
		{4, 4, 0, false},
		{4, 4, -2, false},
	}
	for _, c := range cases {
		_, err := NewGrid(c.rows, c.cols, c.size)
		if (err == nil) != c.ok {
			t.Errorf("NewGrid(%d,%d,%v) err=%v, want ok=%v", c.rows, c.cols, c.size, err, c.ok)
		}
	}
}

func TestGridIDRoundTrip(t *testing.T) {
	g := MustGrid(5, 7, 2)
	for id := 0; id < g.NumCells(); id++ {
		c := g.CellOf(id)
		if !g.Contains(c) {
			t.Fatalf("CellOf(%d)=%v out of range", id, c)
		}
		if got := g.ID(c); got != id {
			t.Fatalf("ID(CellOf(%d)) = %d", id, got)
		}
	}
	if g.NumCells() != 35 {
		t.Errorf("NumCells = %d, want 35", g.NumCells())
	}
}

func TestGridCenterAndSnap(t *testing.T) {
	g := MustGrid(4, 4, 10)
	id := g.ID(Cell{Row: 1, Col: 2})
	c := g.Center(id)
	if c != Pt(25, 15) {
		t.Errorf("Center = %v, want (25,15)", c)
	}
	if got := g.Snap(c); got != id {
		t.Errorf("Snap(Center) = %d, want %d", got, id)
	}
	// Out-of-range points clamp to border cells.
	if got := g.Snap(Pt(-100, -100)); got != g.ID(Cell{0, 0}) {
		t.Errorf("Snap(far negative) = %d, want 0", got)
	}
	if got := g.Snap(Pt(1e6, 1e6)); got != g.ID(Cell{3, 3}) {
		t.Errorf("Snap(far positive) = %d, want last", got)
	}
}

func TestSnapIsInverseOfCenter(t *testing.T) {
	g := MustGrid(9, 11, 3.5)
	f := func(id int) bool {
		if id < 0 {
			id = -id
		}
		id %= g.NumCells()
		return g.Snap(g.Center(id)) == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNeighbors4(t *testing.T) {
	g := MustGrid(3, 3, 1)
	mid := g.ID(Cell{1, 1})
	got := g.Neighbors4(mid)
	want := []int{g.ID(Cell{0, 1}), g.ID(Cell{1, 0}), g.ID(Cell{1, 2}), g.ID(Cell{2, 1})}
	if !equalInts(got, want) {
		t.Errorf("Neighbors4 = %v, want %v", got, want)
	}
	corner := g.ID(Cell{0, 0})
	if n := g.Neighbors4(corner); len(n) != 2 {
		t.Errorf("corner Neighbors4 = %v, want 2 cells", n)
	}
}

func TestNeighbors8(t *testing.T) {
	g := MustGrid(3, 3, 1)
	if n := g.Neighbors8(g.ID(Cell{1, 1})); len(n) != 8 {
		t.Errorf("center has %d 8-neighbors, want 8", len(n))
	}
	if n := g.Neighbors8(g.ID(Cell{0, 0})); len(n) != 3 {
		t.Errorf("corner has %d 8-neighbors, want 3", len(n))
	}
	if n := g.Neighbors8(g.ID(Cell{0, 1})); len(n) != 5 {
		t.Errorf("edge has %d 8-neighbors, want 5", len(n))
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	g := MustGrid(6, 5, 1)
	for id := 0; id < g.NumCells(); id++ {
		for _, n := range g.Neighbors8(id) {
			found := false
			for _, back := range g.Neighbors8(n) {
				if back == id {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("neighbor relation not symmetric: %d -> %d", id, n)
			}
		}
	}
}

func TestEuclidCells(t *testing.T) {
	g := MustGrid(4, 4, 2)
	a := g.ID(Cell{0, 0})
	b := g.ID(Cell{0, 3})
	if got := g.EuclidCells(a, b); got != 6 {
		t.Errorf("EuclidCells = %v, want 6", got)
	}
	if got := g.EuclidCells(a, a); got != 0 {
		t.Errorf("EuclidCells(self) = %v", got)
	}
}

func TestPartition(t *testing.T) {
	g := MustGrid(4, 4, 1)
	regions := g.Partition(2, 2)
	if len(regions) != 4 {
		t.Fatalf("Partition(2,2) gave %d regions, want 4", len(regions))
	}
	total := 0
	for r, cells := range regions {
		total += len(cells)
		if len(cells) != 4 {
			t.Errorf("region %d has %d cells, want 4", r, len(cells))
		}
		for _, id := range cells {
			if g.RegionOf(id, 2, 2) != r {
				t.Errorf("cell %d assigned region %d, RegionOf says %d", id, r, g.RegionOf(id, 2, 2))
			}
		}
	}
	if total != g.NumCells() {
		t.Errorf("partition covers %d cells, want %d", total, g.NumCells())
	}
}

func TestPartitionPartialBlocks(t *testing.T) {
	g := MustGrid(5, 5, 1)
	regions := g.Partition(2, 2)
	if len(regions) != 9 {
		t.Fatalf("Partition on 5x5 with 2x2 blocks gave %d regions, want 9", len(regions))
	}
	total := 0
	for _, cells := range regions {
		total += len(cells)
	}
	if total != 25 {
		t.Errorf("partition covers %d cells, want 25", total)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
