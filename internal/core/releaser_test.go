package core

import (
	"testing"

	"github.com/pglp/panda/internal/dp"
	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/mechanism"
	"github.com/pglp/panda/internal/policygraph"
)

func testPolicy(t *testing.T, grid *geo.Grid, eps float64) Policy {
	t.Helper()
	p, err := NewPolicy(eps, policygraph.GridEightNeighbor(grid))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewReleaserValidation(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	p := testPolicy(t, grid, 1)
	if _, err := NewReleaser(grid, p, mechanism.KindGEM); err != nil {
		t.Fatalf("valid releaser rejected: %v", err)
	}
	if _, err := NewReleaser(grid, Policy{}, mechanism.KindGEM); err == nil {
		t.Error("invalid policy should error")
	}
	if _, err := NewReleaser(grid, p, mechanism.Kind("bogus")); err == nil {
		t.Error("unknown mechanism should error")
	}
	// Graph/grid mismatch.
	bad, _ := NewPolicy(1, policygraph.Path(3))
	if _, err := NewReleaser(grid, bad, mechanism.KindGEM); err == nil {
		t.Error("universe mismatch should error")
	}
}

func TestReleaseAndSnap(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	r, err := NewReleaser(grid, testPolicy(t, grid, 1), mechanism.KindGLM)
	if err != nil {
		t.Fatal(err)
	}
	rng := dp.NewRand(4)
	p, cell, err := r.ReleaseCell(rng, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !grid.InRange(cell) {
		t.Errorf("snapped cell %d out of range", cell)
	}
	if grid.Snap(p) != cell {
		t.Error("snap mismatch")
	}
	if r.Mechanism().Name() != "glm" {
		t.Error("kind plumbing wrong")
	}
}

func TestReleaseTrajectory(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	r, err := NewReleaser(grid, testPolicy(t, grid, 2), mechanism.KindGEM)
	if err != nil {
		t.Fatal(err)
	}
	rng := dp.NewRand(9)
	cells := []int{0, 1, 2, 3, 7, 11}
	pts, snapped, err := r.ReleaseTrajectory(rng, cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(cells) || len(snapped) != len(cells) {
		t.Fatal("length mismatch")
	}
	for i := range pts {
		if grid.Snap(pts[i]) != snapped[i] {
			t.Errorf("step %d snap mismatch", i)
		}
	}
	// Out-of-range cell aborts with step context.
	if _, _, err := r.ReleaseTrajectory(rng, []int{0, 99}); err == nil {
		t.Error("bad trajectory should error")
	}
}
