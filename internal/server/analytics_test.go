package server

import (
	"testing"

	"github.com/pglp/panda/internal/geo"
)

func analyticsDB(t *testing.T) (*DB, *geo.Grid) {
	t.Helper()
	grid := geo.MustGrid(4, 4, 1)
	db := newDB(t, grid, 1)
	// Three users over 3 steps; user 2 visits infected cell 5 twice.
	inserts := []Record{
		{User: 0, T: 0, Cell: 0}, {User: 0, T: 1, Cell: 1}, {User: 0, T: 2, Cell: 2},
		{User: 1, T: 0, Cell: 15}, {User: 1, T: 1, Cell: 15}, {User: 1, T: 2, Cell: 14},
		{User: 2, T: 0, Cell: 5}, {User: 2, T: 1, Cell: 5}, {User: 2, T: 2, Cell: 6},
	}
	for _, r := range inserts {
		if err := insert(db, r); err != nil {
			t.Fatal(err)
		}
	}
	return db, grid
}

func TestDensitySeries(t *testing.T) {
	db, _ := analyticsDB(t)
	series, err := db.Analytics().DensitySeries(0, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("series length = %d", len(series))
	}
	// t=0: cells 0 (region 0), 15 (region 3), 5 (region 0).
	if series[0][0] != 2 || series[0][3] != 1 {
		t.Errorf("t=0 density = %v", series[0])
	}
	if _, err := db.Analytics().DensitySeries(2, 0, 2, 2); err == nil {
		t.Error("inverted range should error")
	}
}

func TestInfectedExposureSeries(t *testing.T) {
	db, _ := analyticsDB(t)
	series, err := db.Analytics().InfectedExposureSeries(0, 2, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 1, 0}
	for i := range want {
		if series[i] != want[i] {
			t.Fatalf("exposure series = %v, want %v", series, want)
		}
	}
	if _, err := db.Analytics().InfectedExposureSeries(1, 0, nil); err == nil {
		t.Error("inverted range should error")
	}
}

func TestCodeCensus(t *testing.T) {
	db, _ := analyticsDB(t)
	census := db.Analytics().CodeCensus([]int{5}, 0, -1)
	if census[CodeRed] != 1 { // user 2: two visits to cell 5
		t.Errorf("census = %v, want 1 red", census)
	}
	if census[CodeGreen] != 2 {
		t.Errorf("census = %v, want 2 green", census)
	}
	total := census[CodeGreen] + census[CodeYellow] + census[CodeRed]
	if total != 3 {
		t.Errorf("census covers %d users, want 3", total)
	}
}
