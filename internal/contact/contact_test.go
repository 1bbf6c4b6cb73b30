package contact

import (
	"testing"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/mechanism"
	"github.com/pglp/panda/internal/policygraph"
	"github.com/pglp/panda/internal/trace"
)

// tracingDataset builds a deterministic scenario: patient (user 0) meets
// user 1 twice and user 2 once; user 3 never.
func tracingDataset(grid *geo.Grid) *trace.Dataset {
	mk := func(cells ...int) []int { return cells }
	return &trace.Dataset{
		Grid:  grid,
		Steps: 6,
		Trajs: []trace.Trajectory{
			{User: 0, Cells: mk(0, 5, 10, 5, 12, 3)},   // patient
			{User: 1, Cells: mk(1, 5, 9, 5, 14, 2)},    // meets at t=1 and t=3
			{User: 2, Cells: mk(0, 8, 9, 11, 13, 2)},   // meets at t=0 only
			{User: 3, Cells: mk(15, 14, 13, 11, 9, 8)}, // never co-located
		},
	}
}

func TestContactsOfGroundTruth(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	ds := tracingDataset(grid)
	got, err := ContactsOf(ds, 0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("contacts = %v, want [1]", got)
	}
	// Threshold 1 also catches user 2.
	got1, _ := ContactsOf(ds, 0, 1, 0)
	if len(got1) != 2 {
		t.Errorf("contacts@1 = %v, want [1 2]", got1)
	}
	// Window of last 3 steps excludes the early meetings.
	gotW, _ := ContactsOf(ds, 0, 2, 3)
	if len(gotW) != 0 {
		t.Errorf("windowed contacts = %v, want none", gotW)
	}
	if _, err := ContactsOf(ds, 42, 2, 0); err == nil {
		t.Error("unknown patient should error")
	}
}

func TestTraceDynamicPolicyFindsContacts(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	ds := tracingDataset(grid)
	base := policygraph.GridEightNeighbor(grid)
	for _, kind := range []mechanism.Kind{mechanism.KindGEM, mechanism.KindGLM, mechanism.KindPIM} {
		res, err := Trace(ds, base, []int{0}, Config{
			Epsilon: 1, Kind: kind, MinCoLocations: 2, Window: 0, Seed: 9,
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		// The protocol must recover exactly the true contact set: visits to
		// infected cells are disclosed exactly, everything else cannot
		// produce exact infected-center matches.
		if len(res.Flagged) != 1 || res.Flagged[0] != 1 {
			t.Errorf("%s: flagged = %v, want [1]", kind, res.Flagged)
		}
		if res.Recall() != 1 || res.Precision() != 1 {
			t.Errorf("%s: precision=%v recall=%v, want 1/1", kind, res.Precision(), res.Recall())
		}
		if len(res.InfectedCells) == 0 {
			t.Errorf("%s: no infected cells derived", kind)
		}
		if res.Releases != 3*ds.Steps {
			t.Errorf("%s: releases = %d, want %d", kind, res.Releases, 3*ds.Steps)
		}
	}
}

func TestTraceRespectsWindow(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	ds := tracingDataset(grid)
	base := policygraph.GridEightNeighbor(grid)
	res, err := Trace(ds, base, []int{0}, Config{
		Epsilon: 1, Kind: mechanism.KindGEM, MinCoLocations: 2, Window: 3, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flagged) != 0 {
		t.Errorf("windowed trace flagged %v, want none", res.Flagged)
	}
	if len(res.Truth) != 0 {
		t.Errorf("windowed truth %v, want none", res.Truth)
	}
	if res.Releases != 3*3 {
		t.Errorf("windowed releases = %d, want 9", res.Releases)
	}
}

func TestTraceMultiplePatients(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	ds := tracingDataset(grid)
	base := policygraph.GridEightNeighbor(grid)
	// Patients 0 and 3. User 3 has no contacts; still fine.
	res, err := Trace(ds, base, []int{0, 3}, Config{
		Epsilon: 1, Kind: mechanism.KindGEM, MinCoLocations: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flagged) != 1 || res.Flagged[0] != 1 {
		t.Errorf("flagged = %v, want [1]", res.Flagged)
	}
	// Patients are excluded from flagging and truth.
	for _, u := range res.Flagged {
		if u == 0 || u == 3 {
			t.Error("patient flagged as their own contact")
		}
	}
}

func TestTraceValidation(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	ds := tracingDataset(grid)
	base := policygraph.GridEightNeighbor(grid)
	if _, err := Trace(ds, base, nil, Config{Epsilon: 1, Kind: mechanism.KindGEM, MinCoLocations: 2}); err == nil {
		t.Error("no patients should error")
	}
	if _, err := Trace(ds, base, []int{42}, Config{Epsilon: 1, Kind: mechanism.KindGEM, MinCoLocations: 2}); err == nil {
		t.Error("unknown patient should error")
	}
	if _, err := Trace(ds, base, []int{0}, Config{Epsilon: 0, Kind: mechanism.KindGEM, MinCoLocations: 2}); err == nil {
		t.Error("zero epsilon should error")
	}
	if _, err := Trace(ds, base, []int{0}, Config{Epsilon: 1, Kind: mechanism.KindGEM, MinCoLocations: 0}); err == nil {
		t.Error("zero threshold should error")
	}
	if _, err := Trace(ds, base, []int{0}, Config{Epsilon: 1, MinCoLocations: 2}); err == nil {
		t.Error("missing kind should error")
	}
}

func TestStaticBaselineIsWorse(t *testing.T) {
	// On a larger random scenario the static baseline (no policy update)
	// should recover contacts strictly worse than the dynamic protocol at
	// moderate ε.
	grid := geo.MustGrid(8, 8, 1)
	ds, err := trace.GenerateGeoLife(grid, trace.GeoLifeConfig{
		Users: 40, Steps: 30, Seed: 21, Speed: 1, PauseProb: 0.5, HomeBias: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := policygraph.GridEightNeighbor(grid)
	cfg := Config{Epsilon: 1, Kind: mechanism.KindGEM, MinCoLocations: 2, Seed: 3}
	dyn, err := Trace(ds, base, []int{0}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stat, err := StaticBaseline(ds, base, []int{0}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dyn.F1() != 1 {
		t.Errorf("dynamic protocol F1 = %v, want 1 (exact recovery)", dyn.F1())
	}
	if len(dyn.Truth) > 0 && stat.F1() >= dyn.F1() {
		t.Errorf("static baseline F1 %v should be below dynamic %v", stat.F1(), dyn.F1())
	}
}
