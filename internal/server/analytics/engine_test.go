package analytics

import (
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/server/storage"
)

// countingStore wraps a Store and counts the read calls the engine
// makes, so tests can observe cache hits and misses directly.
type countingStore struct {
	storage.Store
	scanRanges atomic.Int64
	userReads  atomic.Int64
}

func (c *countingStore) ScanRange(t0, t1 int, fn func(storage.Record) bool) {
	c.scanRanges.Add(1)
	c.Store.ScanRange(t0, t1, fn)
}

func (c *countingStore) UserRecords(user int) []storage.Record {
	c.userReads.Add(1)
	return c.Store.UserRecords(user)
}

func testEngine(t *testing.T) (*Engine, *countingStore) {
	t.Helper()
	grid := geo.MustGrid(4, 4, 1)
	cs := &countingStore{Store: storage.NewShardedStore(1)}
	e := New(grid, cs)
	// Three users over 3 steps; user 2 visits infected cell 5 twice.
	inserts := []storage.Record{
		{User: 0, T: 0, Cell: 0}, {User: 0, T: 1, Cell: 1}, {User: 0, T: 2, Cell: 2},
		{User: 1, T: 0, Cell: 15}, {User: 1, T: 1, Cell: 15}, {User: 1, T: 2, Cell: 14},
		{User: 2, T: 0, Cell: 5}, {User: 2, T: 1, Cell: 5}, {User: 2, T: 2, Cell: 6},
	}
	for _, rec := range inserts {
		cs.Insert(rec)
	}
	return e, cs
}

func TestDensityAtCorrectAndCached(t *testing.T) {
	e, cs := testEngine(t)
	first := e.DensityAt(0, 2, 2)
	// t=0: cells 0 (region 0), 15 (region 3), 5 (region 0).
	if first[0] != 2 || first[3] != 1 {
		t.Fatalf("density at t=0 = %v", first)
	}
	scans := cs.scanRanges.Load()
	again := e.DensityAt(0, 2, 2)
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("cached density %v != first %v", again, first)
	}
	if got := cs.scanRanges.Load(); got != scans {
		t.Errorf("cache hit rescanned the store (%d -> %d scans)", scans, got)
	}
	// The returned slice is the caller's: mutating it must not corrupt
	// the cache.
	again[0] = 99
	if third := e.DensityAt(0, 2, 2); third[0] != 2 {
		t.Errorf("caller mutation leaked into cache: %v", third)
	}
	// A different block shape is a different cache key.
	fine := e.DensityAt(0, 1, 1)
	if len(fine) != 16 || fine[5] != 1 {
		t.Errorf("1x1 density = %v", fine)
	}
}

// TestDensityInvalidationPerTimestep is the acceptance test for the
// invalidation contract: a write to timestep t evicts t's cached
// aggregates and nothing else.
func TestDensityInvalidationPerTimestep(t *testing.T) {
	e, cs := testEngine(t)
	d0 := e.DensityAt(0, 2, 2)
	d1 := e.DensityAt(1, 2, 2)
	base := cs.scanRanges.Load()
	// Both hot: no scans.
	e.DensityAt(0, 2, 2)
	e.DensityAt(1, 2, 2)
	if got := cs.scanRanges.Load(); got != base {
		t.Fatalf("hot queries rescanned (%d -> %d)", base, got)
	}
	// Write (a brand-new user) to t=1 only.
	cs.Insert(storage.Record{User: 7, T: 1, Cell: 0})
	got0 := e.DensityAt(0, 2, 2)
	if cs.scanRanges.Load() != base {
		t.Errorf("write to t=1 invalidated t=0's cache entry")
	}
	if !reflect.DeepEqual(got0, d0) {
		t.Errorf("t=0 density changed: %v -> %v", d0, got0)
	}
	got1 := e.DensityAt(1, 2, 2)
	if cs.scanRanges.Load() != base+1 {
		t.Errorf("write to t=1 did not invalidate t=1 (scans %d -> %d)", base, cs.scanRanges.Load())
	}
	if got1[0] != d1[0]+1 {
		t.Errorf("t=1 density after write = %v, want region 0 bumped from %v", got1, d1)
	}
	// A replacement (same user, same t) must also invalidate: the
	// record moved cells even though none was added.
	cs.Insert(storage.Record{User: 7, T: 1, Cell: 15})
	moved := e.DensityAt(1, 2, 2)
	if moved[0] != d1[0] || moved[3] != d1[3]+1 {
		t.Errorf("replacement not reflected: %v (was %v)", moved, d1)
	}
}

func TestDensitySeries(t *testing.T) {
	e, cs := testEngine(t)
	series, err := e.DensitySeries(0, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 || series[0][0] != 2 || series[0][3] != 1 {
		t.Fatalf("series = %v", series)
	}
	if _, err := e.DensitySeries(2, 0, 2, 2); err == nil {
		t.Error("inverted range should error")
	}
	// A repeated series over the same window is all cache hits.
	base := cs.scanRanges.Load()
	again, err := e.DensitySeries(0, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(series, again) {
		t.Errorf("repeated series differs: %v vs %v", series, again)
	}
	if got := cs.scanRanges.Load(); got != base {
		t.Errorf("repeated series rescanned (%d -> %d)", base, got)
	}
}

// TestBlockSizes: a block side below one cell divides by zero or
// indexes a negative region, so every region query refuses it; a block
// side near math.MaxInt is one region across.
func TestBlockSizes(t *testing.T) {
	e, _ := testEngine(t)
	for _, b := range [][2]int{{0, 4}, {4, 0}, {0, 0}, {-1, -1}, {-2, 3}, {math.MinInt, 1}} {
		if got := e.DensityAt(0, b[0], b[1]); got != nil {
			t.Errorf("DensityAt(0, %d, %d) = %v, want nil", b[0], b[1], got)
		}
		if got := e.MovementMatrix(0, 1, b[0], b[1]); got != nil {
			t.Errorf("MovementMatrix(0, 1, %d, %d) = %v, want nil", b[0], b[1], got)
		}
		if _, err := e.DensitySeries(0, 2, b[0], b[1]); err == nil {
			t.Errorf("DensitySeries(0, 2, %d, %d) should error", b[0], b[1])
		}
	}
	// t=0 holds three records; one block covers the whole 4x4 grid.
	if got := e.DensityAt(0, math.MaxInt, math.MaxInt); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("DensityAt(0, MaxInt, MaxInt) = %v, want [3]", got)
	}
	if got := e.MovementMatrix(0, 1, 4, math.MaxInt); !reflect.DeepEqual(got, [][]int{{3}}) {
		t.Errorf("MovementMatrix(0, 1, 4, MaxInt) = %v, want [[3]]", got)
	}
}

func TestExposureSeriesCachedPerInfectedSet(t *testing.T) {
	e, cs := testEngine(t)
	series, err := e.InfectedExposureSeries(0, 2, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 1, 0}; !reflect.DeepEqual(series, want) {
		t.Fatalf("exposure = %v, want %v", series, want)
	}
	if _, err := e.InfectedExposureSeries(1, 0, nil); err == nil {
		t.Error("inverted range should error")
	}
	// The infected set is canonicalized: order and duplicates don't
	// miss the cache.
	base := cs.scanRanges.Load()
	if _, err := e.InfectedExposureSeries(0, 2, []int{5, 5}); err != nil {
		t.Fatal(err)
	}
	if got := cs.scanRanges.Load(); got != base {
		t.Errorf("equivalent infected set rescanned (%d -> %d)", base, got)
	}
	// A different set is a different key.
	other, err := e.InfectedExposureSeries(0, 2, []int{14})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 0, 1}; !reflect.DeepEqual(other, want) {
		t.Errorf("exposure for cell 14 = %v, want %v", other, want)
	}
}

// TestSeriesEndAtMaxInt checks that a series whose range ends at
// math.MaxInt stops there instead of wrapping around.
func TestSeriesEndAtMaxInt(t *testing.T) {
	e, cs := testEngine(t)
	cs.Insert(storage.Record{User: 2, T: math.MaxInt, Cell: 5})
	var density [][]int
	var exposure []int
	within(t, "series over [math.MaxInt-2, math.MaxInt]", func() {
		density, _ = e.DensitySeries(math.MaxInt-2, math.MaxInt, 2, 2)
		exposure, _ = e.InfectedExposureSeries(math.MaxInt-2, math.MaxInt, []int{5})
	})
	if len(density) != 3 || density[2][0] != 1 {
		t.Errorf("density series = %v, want 3 steps with one record in region 0 at the last", density)
	}
	if !reflect.DeepEqual(exposure, []int{0, 0, 1}) {
		t.Errorf("exposure series = %v, want [0 0 1]", exposure)
	}
}

// TestSeriesSpanLimit checks both series against MaxSeriesSpan: the
// widest allowed range answers in full, and a wider one, even one whose
// width overflows int, is refused before anything is allocated.
func TestSeriesSpanLimit(t *testing.T) {
	e, _ := testEngine(t)
	for _, c := range []struct {
		t0, t1 int
		ok     bool
	}{
		{0, MaxSeriesSpan - 1, true},
		{0, MaxSeriesSpan, false},
		{math.MinInt, math.MaxInt, false},
	} {
		var density [][]int
		var exposure []int
		var derr, eerr error
		within(t, fmt.Sprintf("series over [%d, %d]", c.t0, c.t1), func() {
			density, derr = e.DensitySeries(c.t0, c.t1, 2, 2)
			exposure, eerr = e.InfectedExposureSeries(c.t0, c.t1, []int{5})
		})
		if (derr == nil) != c.ok || (eerr == nil) != c.ok {
			t.Errorf("series over [%d, %d]: density err %v, exposure err %v, want ok=%v", c.t0, c.t1, derr, eerr, c.ok)
		}
		if c.ok && (len(density) != MaxSeriesSpan || len(exposure) != MaxSeriesSpan) {
			t.Errorf("series over [%d, %d]: %d density and %d exposure steps, want %d",
				c.t0, c.t1, len(density), len(exposure), MaxSeriesSpan)
		}
	}
}

func TestHealthCodeAndCensus(t *testing.T) {
	e, cs := testEngine(t)
	if code := e.HealthCodeFor(2, []int{5}, 0, -1); code != CodeRed {
		t.Errorf("user 2 = %s, want red", code)
	}
	if code := e.HealthCodeFor(2, []int{5}, 1, 2); code != CodeGreen {
		t.Errorf("user 2 with window 1 at now=2 = %s, want green", code)
	}
	// reads reports the ScanRange and UserRecords calls made since the
	// previous call.
	scans, users := cs.scanRanges.Load(), cs.userReads.Load()
	reads := func() (int64, int64) {
		s, u := cs.scanRanges.Load(), cs.userReads.Load()
		ds, du := s-scans, u-users
		scans, users = s, u
		return ds, du
	}
	census := e.CodeCensus([]int{5}, 0, -1)
	if census[CodeRed] != 1 || census[CodeGreen] != 2 || census[CodeYellow] != 0 {
		t.Fatalf("census = %v", census)
	}
	// The store holds 3 steps, fewer than censusSlices, so a miss scans
	// each step once.
	if s, u := reads(); s != 3 || u != 0 {
		t.Errorf("census miss made %d scans and %d user reads, want 3 and 0", s, u)
	}
	again := e.CodeCensus([]int{5}, 0, -1)
	if !reflect.DeepEqual(census, again) {
		t.Errorf("cached census differs: %v vs %v", again, census)
	}
	if s, u := reads(); s != 0 || u != 0 {
		t.Errorf("census hit made %d scans and %d user reads, want none", s, u)
	}
	// Caller mutation must not corrupt the cache.
	again[CodeGreen] = 99
	if third := e.CodeCensus([]int{5}, 0, -1); third[CodeGreen] != 2 {
		t.Errorf("caller mutation leaked into census cache: %v", third)
	}
	// Any write invalidates the census (global epoch).
	cs.Insert(storage.Record{User: 3, T: 0, Cell: 5})
	after := e.CodeCensus([]int{5}, 0, -1)
	if after[CodeYellow] != 1 {
		t.Errorf("census after new yellow user = %v", after)
	}
	if s, u := reads(); s != 3 || u != 0 {
		t.Errorf("census miss after a write made %d scans and %d user reads, want 3 and 0", s, u)
	}
}

// TestCodeCensusScanSlices checks how a census miss cuts its window
// into ScanRange calls: one per step while the window is narrower than
// censusSlices, and never more than censusSlices, however wide the
// window or large T.
func TestCodeCensusScanSlices(t *testing.T) {
	cs := &countingStore{Store: storage.NewShardedStore(4)}
	e := New(geo.MustGrid(4, 4, 1), cs)
	for ti := 0; ti < 100; ti++ {
		cs.Insert(storage.Record{User: ti % 7, T: ti, Cell: ti % 16})
	}
	scans := func(window, now int) int64 {
		before := cs.scanRanges.Load()
		e.CodeCensus([]int{3}, window, now)
		return cs.scanRanges.Load() - before
	}
	for _, c := range []struct {
		window, now int
		want        int64
	}{
		{24, -1, 24},
		{5, 50, 5},
		{24, 10, 11}, // clamped at step 0
		{24, 200, 0}, // past the history
		{0, -1, 25},  // 100 steps in slices of 4
	} {
		if got := scans(c.window, c.now); got != c.want {
			t.Errorf("census window=%d now=%d made %d scans, want %d", c.window, c.now, got, c.want)
		}
	}
	for _, far := range []int{1 << 40, math.MaxInt} {
		cs.Insert(storage.Record{User: 8, T: far, Cell: 3})
		for _, c := range []struct {
			window int
			want   int64
		}{{24, 24}, {0, censusSlices}, {math.MaxInt, censusSlices}} {
			if got := scans(c.window, -1); got != c.want {
				t.Errorf("MaxT %d: census window=%d made %d scans, want %d", far, c.window, got, c.want)
			}
		}
	}
}
