package geo

import (
	"fmt"
	"math"
)

// Cell identifies a discrete grid cell by row and column (0-based).
type Cell struct {
	Row, Col int
}

// String implements fmt.Stringer.
func (c Cell) String() string { return fmt.Sprintf("r%dc%d", c.Row, c.Col) }

// Grid is a Rows x Cols map of square cells of side CellSize. Cells are
// addressed either by (row, col) or by a dense row-major integer ID in
// [0, NumCells()). The grid is the universe of "possible locations" over
// which location policy graphs are defined (paper §2.1).
type Grid struct {
	Rows, Cols int
	CellSize   float64
}

// NewGrid validates the dimensions and returns a Grid.
func NewGrid(rows, cols int, cellSize float64) (*Grid, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("geo: grid dimensions must be positive, got %dx%d", rows, cols)
	}
	if cellSize <= 0 || math.IsNaN(cellSize) || math.IsInf(cellSize, 0) {
		return nil, fmt.Errorf("geo: cell size must be positive and finite, got %v", cellSize)
	}
	return &Grid{Rows: rows, Cols: cols, CellSize: cellSize}, nil
}

// MustGrid is NewGrid that panics on error; for tests and examples.
func MustGrid(rows, cols int, cellSize float64) *Grid {
	g, err := NewGrid(rows, cols, cellSize)
	if err != nil {
		panic(err)
	}
	return g
}

// NumCells returns Rows*Cols.
func (g *Grid) NumCells() int { return g.Rows * g.Cols }

// ID returns the row-major integer ID of c. The cell must be in range.
func (g *Grid) ID(c Cell) int { return c.Row*g.Cols + c.Col }

// CellOf is the inverse of ID.
func (g *Grid) CellOf(id int) Cell { return Cell{Row: id / g.Cols, Col: id % g.Cols} }

// InRange reports whether id is a valid cell ID.
func (g *Grid) InRange(id int) bool { return id >= 0 && id < g.NumCells() }

// Contains reports whether c lies inside the grid.
func (g *Grid) Contains(c Cell) bool {
	return c.Row >= 0 && c.Row < g.Rows && c.Col >= 0 && c.Col < g.Cols
}

// Center returns the plane coordinates of the center of cell id.
func (g *Grid) Center(id int) Point {
	c := g.CellOf(id)
	return Point{
		X: (float64(c.Col) + 0.5) * g.CellSize,
		Y: (float64(c.Row) + 0.5) * g.CellSize,
	}
}

// Snap returns the ID of the cell containing p, clamping out-of-bounds
// points to the nearest border cell. Released locations may fall outside
// the map (noise is unbounded); snapping is the canonical discretisation.
func (g *Grid) Snap(p Point) int {
	col := int(math.Floor(p.X / g.CellSize))
	row := int(math.Floor(p.Y / g.CellSize))
	col = min(max(col, 0), g.Cols-1)
	row = min(max(row, 0), g.Rows-1)
	return g.ID(Cell{Row: row, Col: col})
}

// EuclidCells returns the Euclidean distance between the centers of two cells.
func (g *Grid) EuclidCells(a, b int) float64 {
	return Dist(g.Center(a), g.Center(b))
}

// Neighbors4 returns the IDs of the 4-adjacent cells of id (N, S, E, W),
// in ascending ID order.
func (g *Grid) Neighbors4(id int) []int {
	c := g.CellOf(id)
	out := make([]int, 0, 4)
	for _, d := range [...]Cell{{-1, 0}, {0, -1}, {0, 1}, {1, 0}} {
		n := Cell{Row: c.Row + d.Row, Col: c.Col + d.Col}
		if g.Contains(n) {
			out = append(out, g.ID(n))
		}
	}
	return out
}

// Neighbors8 returns the IDs of the 8-adjacent cells (the "closest eight
// locations on the map" used by policy graph G1 in paper Fig. 2), in
// ascending ID order.
func (g *Grid) Neighbors8(id int) []int {
	c := g.CellOf(id)
	out := make([]int, 0, 8)
	for dr := -1; dr <= 1; dr++ {
		for dc := -1; dc <= 1; dc++ {
			if dr == 0 && dc == 0 {
				continue
			}
			n := Cell{Row: c.Row + dr, Col: c.Col + dc}
			if g.Contains(n) {
				out = append(out, g.ID(n))
			}
		}
	}
	return out
}

// RegionOf returns the index of the coarse region containing cell id, when
// the grid is partitioned into blocks of blockRows x blockCols cells.
// Regions are numbered row-major over blocks. Partial blocks at the right
// and bottom edges are allowed. Block sides must be at least 1.
func (g *Grid) RegionOf(id, blockRows, blockCols int) int {
	c := g.CellOf(id)
	return (c.Row/blockRows)*blocksAcross(g.Cols, blockCols) + c.Col/blockCols
}

// NumRegions returns the number of blockRows x blockCols regions. Block
// sides must be at least 1.
func (g *Grid) NumRegions(blockRows, blockCols int) int {
	return blocksAcross(g.Rows, blockRows) * blocksAcross(g.Cols, blockCols)
}

// blocksAcross returns ⌈n/block⌉ for n, block ≥ 1 without computing
// n+block-1, which overflows for a block near math.MaxInt.
func blocksAcross(n, block int) int {
	return (n-1)/block + 1
}

// Partition groups cell IDs by region for a blockRows x blockCols blocking.
// The result has NumRegions entries; each inner slice is sorted.
func (g *Grid) Partition(blockRows, blockCols int) [][]int {
	out := make([][]int, g.NumRegions(blockRows, blockCols))
	for id := 0; id < g.NumCells(); id++ {
		r := g.RegionOf(id, blockRows, blockCols)
		out[r] = append(out[r], id)
	}
	return out
}
