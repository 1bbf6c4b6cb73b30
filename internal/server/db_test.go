package server

import (
	"slices"
	"sync"
	"testing"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/server/storage"
)

// insert stores one record through DB's validating batch path.
func insert(db *DB, rec Record) error {
	_, _, err := db.InsertBatch([]Record{rec})
	return err
}

// newDB builds a DB over an in-memory store with the given number of
// lock shards.
func newDB(tb testing.TB, grid *geo.Grid, shards int) *DB {
	tb.Helper()
	db, err := NewDBOn(grid, storage.NewShardedStore(shards))
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

func TestDBInsertAndQuery(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	db := newDB(t, grid, 1)
	if err := insert(db, Record{User: 1, T: 0, Point: grid.Center(5), Cell: -1}); err != nil {
		t.Fatal(err)
	}
	if err := insert(db, Record{User: 1, T: 1, Point: grid.Center(6), Cell: 6}); err != nil {
		t.Fatal(err)
	}
	if db.Store().Len() != 2 {
		t.Errorf("Len = %d", db.Store().Len())
	}
	rs := db.Store().UserRecords(1)
	if len(rs) != 2 || rs[0].Cell != 5 || rs[1].Cell != 6 {
		t.Errorf("UserRecords = %+v", rs)
	}
	if got := db.Store().Users(); len(got) != 1 || got[0] != 1 {
		t.Errorf("Users = %v", got)
	}
	if at := db.Store().At(1); len(at) != 1 || at[0].Cell != 6 {
		t.Errorf("At(1) = %+v", at)
	}
	if at := db.Store().At(9); len(at) != 0 {
		t.Errorf("At(9) = %+v, want empty", at)
	}
}

func TestDBInsertValidation(t *testing.T) {
	grid := geo.MustGrid(2, 2, 1)
	db := newDB(t, grid, 1)
	if err := insert(db, Record{User: 0, T: -1, Cell: 0}); err == nil {
		t.Error("negative t should error")
	}
	if err := insert(db, Record{User: 0, T: 0, Cell: 99}); err == nil {
		t.Error("bad cell should error")
	}
	// Snap handles out-of-map points by clamping.
	if err := insert(db, Record{User: 0, T: 0, Point: geo.Pt(-50, -50), Cell: -1}); err != nil {
		t.Errorf("clamped insert failed: %v", err)
	}
	if rs := db.Store().UserRecords(0); rs[0].Cell != 0 {
		t.Errorf("clamped cell = %d, want 0", rs[0].Cell)
	}
}

func TestDBReplaceOnResend(t *testing.T) {
	grid := geo.MustGrid(2, 2, 1)
	db := newDB(t, grid, 1)
	_ = insert(db, Record{User: 3, T: 5, Cell: 0, PolicyVersion: 1})
	_ = insert(db, Record{User: 3, T: 5, Cell: 2, PolicyVersion: 2})
	rs := db.Store().UserRecords(3)
	if len(rs) != 1 {
		t.Fatalf("re-send should replace, got %d records", len(rs))
	}
	if rs[0].Cell != 2 || rs[0].PolicyVersion != 2 {
		t.Errorf("record = %+v, want updated release", rs[0])
	}
	if db.Store().Len() != 1 {
		t.Errorf("Len = %d, want 1", db.Store().Len())
	}
}

func TestDBRecordsSortedByTime(t *testing.T) {
	grid := geo.MustGrid(2, 2, 1)
	db := newDB(t, grid, 1)
	for _, ti := range []int{5, 1, 3, 0, 4, 2} {
		_ = insert(db, Record{User: 0, T: ti, Cell: ti % 4})
	}
	rs := db.Store().UserRecords(0)
	for i := 1; i < len(rs); i++ {
		if rs[i].T <= rs[i-1].T {
			t.Fatalf("records not sorted: %+v", rs)
		}
	}
}

func TestDensityAt(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	db := newDB(t, grid, 1)
	// Three users in region 0 (top-left 2x2), one in region 3.
	_ = insert(db, Record{User: 0, T: 0, Cell: 0})
	_ = insert(db, Record{User: 1, T: 0, Cell: 1})
	_ = insert(db, Record{User: 2, T: 0, Cell: 5})
	_ = insert(db, Record{User: 3, T: 0, Cell: 15})
	counts := db.Analytics().DensityAt(0, 2, 2)
	if len(counts) != 4 {
		t.Fatalf("regions = %d", len(counts))
	}
	if counts[0] != 3 || counts[3] != 1 || counts[1] != 0 || counts[2] != 0 {
		t.Errorf("density = %v", counts)
	}
}

func TestMovementMatrix(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	db := newDB(t, grid, 1)
	// User 0 moves region 0 → region 3; user 1 stays in region 0;
	// user 2 has no second record.
	_ = insert(db, Record{User: 0, T: 0, Cell: 0})
	_ = insert(db, Record{User: 0, T: 1, Cell: 15})
	_ = insert(db, Record{User: 1, T: 0, Cell: 1})
	_ = insert(db, Record{User: 1, T: 1, Cell: 4})
	_ = insert(db, Record{User: 2, T: 0, Cell: 2})
	flows := db.Analytics().MovementMatrix(0, 1, 2, 2)
	if flows[0][3] != 1 {
		t.Errorf("flow 0→3 = %d, want 1", flows[0][3])
	}
	if flows[0][0] != 1 {
		t.Errorf("flow 0→0 = %d, want 1", flows[0][0])
	}
	var total int
	for _, row := range flows {
		for _, v := range row {
			total += v
		}
	}
	if total != 2 {
		t.Errorf("total flows = %d, want 2 (user 2 has no pair)", total)
	}
}

func TestHealthCodeFor(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	db := newDB(t, grid, 1)
	infected := []int{5, 6}
	_ = insert(db, Record{User: 0, T: 0, Cell: 0})
	if code := db.Analytics().HealthCodeFor(0, infected, 0, -1); code != CodeGreen {
		t.Errorf("code = %v, want green", code)
	}
	_ = insert(db, Record{User: 0, T: 1, Cell: 5})
	if code := db.Analytics().HealthCodeFor(0, infected, 0, -1); code != CodeYellow {
		t.Errorf("code = %v, want yellow", code)
	}
	_ = insert(db, Record{User: 0, T: 2, Cell: 6})
	if code := db.Analytics().HealthCodeFor(0, infected, 0, -1); code != CodeRed {
		t.Errorf("code = %v, want red", code)
	}
	// Windowing: only the visit at t=2 counts in a window of 1 anchored
	// at the latest timestep.
	if code := db.Analytics().HealthCodeFor(0, infected, 1, -1); code != CodeYellow {
		t.Errorf("windowed code = %v, want yellow", code)
	}
	// Unknown user is green.
	if code := db.Analytics().HealthCodeFor(42, infected, 0, -1); code != CodeGreen {
		t.Errorf("unknown user code = %v", code)
	}
}

func TestHealthCodeWindowAnchoredAtNow(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	db := newDB(t, grid, 1)
	infected := []int{5}
	// User 0 visited an infected place at t=2 and then stopped reporting.
	_ = insert(db, Record{User: 0, T: 2, Cell: 5})
	// While the visit is inside the window, it counts.
	if code := db.Analytics().HealthCodeFor(0, infected, 14, 10); code != CodeYellow {
		t.Errorf("code at now=10 = %v, want yellow", code)
	}
	// Long after the visit, an explicit clock ages it out — the window
	// must not stay anchored at the user's own last record.
	if code := db.Analytics().HealthCodeFor(0, infected, 14, 30); code != CodeGreen {
		t.Errorf("code at now=30 = %v, want green (visit aged out)", code)
	}
	// Another user keeps reporting, advancing the DB's latest timestep;
	// the default clock (now < 0) then ages user 0 out too.
	_ = insert(db, Record{User: 1, T: 30, Cell: 0})
	if code := db.Analytics().HealthCodeFor(0, infected, 14, -1); code != CodeGreen {
		t.Errorf("code at default now = %v, want green", code)
	}
	// A visit after the anchor must not count either: the window is
	// (now-window, now], so a historical query never sees the future.
	_ = insert(db, Record{User: 0, T: 40, Cell: 5})
	if code := db.Analytics().HealthCodeFor(0, infected, 14, 10); code != CodeYellow {
		t.Errorf("code at now=10 with future visit = %v, want yellow (only the t=2 visit)", code)
	}
}

func TestDBConcurrent(t *testing.T) {
	grid := geo.MustGrid(8, 8, 1)
	db := newDB(t, grid, 1)
	var wg sync.WaitGroup
	for u := 0; u < 8; u++ {
		wg.Add(1)
		go func(user int) {
			defer wg.Done()
			for ti := 0; ti < 100; ti++ {
				_ = insert(db, Record{User: user, T: ti, Cell: (user + ti) % 64})
				db.Store().At(ti % 10)
				db.Analytics().DensityAt(ti%10, 4, 4)
			}
		}(u)
	}
	wg.Wait()
	if db.Store().Len() != 800 {
		t.Errorf("Len = %d, want 800", db.Store().Len())
	}
}

// TestDBInsertBatchAtomicValidation: a batch containing an invalid
// record stores nothing.
func TestDBInsertBatchAtomicValidation(t *testing.T) {
	grid := geo.MustGrid(2, 2, 1)
	db := newDB(t, grid, 1)
	_, _, err := db.InsertBatch([]Record{
		{User: 1, T: 0, Cell: 0},
		{User: 1, T: -1, Cell: 0}, // invalid
	})
	if err == nil {
		t.Fatal("invalid batch should error")
	}
	if db.Store().Len() != 0 {
		t.Errorf("Len = %d after failed batch, want 0", db.Store().Len())
	}
	batch := []Record{
		{User: 1, T: 0, Cell: 0},
		{User: 1, T: 0, Cell: 1}, // replaces within the same batch
		{User: 2, T: 3, Point: grid.Center(2), Cell: -1},
	}
	in := slices.Clone(batch)
	added, replaced, err := db.InsertBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if added != 2 || replaced != 1 {
		t.Errorf("added=%d replaced=%d, want 2/1", added, replaced)
	}
	if !slices.Equal(batch, in) {
		t.Errorf("InsertBatch modified the caller's slice: %+v, want %+v", batch, in)
	}
	if rs := db.Store().UserRecords(2); len(rs) != 1 || rs[0].Cell != 2 {
		t.Errorf("user 2 records = %+v, want its point snapped to cell 2", rs)
	}
	if rs := db.Store().UserRecords(1); len(rs) != 1 || rs[0].Cell != 1 {
		t.Errorf("user 1 records = %+v, want single record at cell 1", rs)
	}
}

// TestNewDBOn wires a custom store through the DB seam.
func TestNewDBOn(t *testing.T) {
	grid := geo.MustGrid(2, 2, 1)
	if _, err := NewDBOn(nil, storage.NewShardedStore(1)); err == nil {
		t.Error("nil grid should error")
	}
	if _, err := NewDBOn(grid, nil); err == nil {
		t.Error("nil store should error")
	}
	db, err := NewDBOn(grid, storage.NewShardedStore(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := insert(db, Record{User: 0, T: 0, Cell: 1}); err != nil {
		t.Fatal(err)
	}
	if db.Store().Len() != 1 {
		t.Errorf("Len = %d", db.Store().Len())
	}
}
