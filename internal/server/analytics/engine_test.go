package analytics

import (
	"fmt"
	"math"
	"math/rand/v2"
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
	// Any write invalidates the census (global epoch), but the miss
	// rescans only the step written.
	cs.Insert(storage.Record{User: 3, T: 0, Cell: 5})
	after := e.CodeCensus([]int{5}, 0, -1)
	if after[CodeYellow] != 1 {
		t.Errorf("census after new yellow user = %v", after)
	}
	if s, u := reads(); s != 1 || u != 0 {
		t.Errorf("census miss after a write made %d scans and %d user reads, want 1 and 0", s, u)
	}
}

// TestCodeCensusScanSlices checks the ScanRange calls of a census miss.
// A cold census makes at most censusSlices, one per step while the
// window is narrower than that, however wide the window or large T.
// Once its steps are cached, a write to one step of the window costs
// one scan, and a write outside the window none, though the new user
// it adds still turns green.
func TestCodeCensusScanSlices(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	newEngine := func(steps []int) (*Engine, *countingStore) {
		cs := &countingStore{Store: storage.NewShardedStore(4)}
		for i, ti := range steps {
			cs.Insert(storage.Record{User: i % 7, T: ti, Cell: ti % 16})
		}
		return New(grid, cs), cs
	}
	census := func(e *Engine, cs *countingStore, window, now int) (map[Code]int, int64) {
		before := cs.scanRanges.Load()
		c := e.CodeCensus([]int{3}, window, now)
		return c, cs.scanRanges.Load() - before
	}
	dense := make([]int, 100)
	for ti := range dense {
		dense[ti] = ti
	}
	// One step every 1<<58: a census over all of int cuts its window
	// into slices of exactly that width, so each step is its own scan.
	var spread []int
	for k := 0; k < censusSlices; k++ {
		spread = append(spread, k<<58)
	}
	for _, c := range []struct {
		steps       []int
		window, now int
		want        int64
	}{
		{dense, 24, -1, 24},
		{dense, 5, 50, 5},
		{dense, 24, 10, 11}, // clamped at step 0
		{dense, 24, 200, 0}, // past the history
		{dense, 0, -1, 25},  // 100 steps in slices of 4
		{append(dense, 1<<40), 24, -1, 1},
		{append(dense, 1<<40), 0, -1, 2},
		{append(dense, math.MaxInt), math.MaxInt, -1, 2},
		{append(dense, spread...), 0, -1, censusSlices},
		{append(spread, math.MaxInt), 0, -1, censusSlices},
		{append(spread, math.MaxInt), math.MaxInt, -1, censusSlices},
	} {
		e, cs := newEngine(c.steps)
		if _, got := census(e, cs, c.window, c.now); got != c.want {
			t.Errorf("%d steps up to %d: cold census window=%d now=%d made %d scans, want %d",
				len(c.steps), c.steps[len(c.steps)-1], c.window, c.now, got, c.want)
		}
	}
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 200; i++ {
		steps := make([]int, 1+rng.IntN(300))
		for j := range steps {
			steps[j] = rng.IntN(1 << (1 + rng.IntN(62)))
		}
		e, cs := newEngine(steps)
		window := []int{0, 1 + rng.IntN(100), rng.Int()}[rng.IntN(3)]
		if _, got := census(e, cs, window, -1); got > censusSlices {
			t.Fatalf("%d random steps: cold census window=%d made %d scans, more than %d",
				len(steps), window, got, censusSlices)
		}
	}

	e, cs := newEngine(dense)
	before, _ := census(e, cs, 24, -1)
	cs.Insert(storage.Record{User: 9, T: 90, Cell: 3}) // in [76, 99]
	mid, scans := census(e, cs, 24, -1)
	if scans != 1 || mid[CodeYellow] != before[CodeYellow]+1 {
		t.Errorf("write in the window: census %v (was %v) after %d scans, want one more yellow after 1 scan",
			mid, before, scans)
	}
	cs.Insert(storage.Record{User: 10, T: 10, Cell: 3}) // before the window
	after, scans := census(e, cs, 24, -1)
	if scans != 0 || after[CodeGreen] != mid[CodeGreen]+1 {
		t.Errorf("write outside the window: census %v (was %v) after %d scans, want one more green after none",
			after, mid, scans)
	}
}

// TestCensusAndExposureShareEntries checks that the census and the
// exposure series cache the same per-step entries: a series over the
// window a census just tallied makes no scan, a census over the window
// a series just read makes none either, and both equal a fresh engine.
func TestCensusAndExposureShareEntries(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	cs := &countingStore{Store: storage.NewShardedStore(4)}
	for ti := 0; ti < 60; ti++ {
		for u := 0; u < 5; u++ {
			cs.Insert(storage.Record{User: u, T: ti, Cell: (u*3 + ti) % 16})
		}
	}
	e, fresh := New(grid, cs), New(grid, cs.Store)
	infected := []int{3, 7}

	census := e.CodeCensus(infected, 24, -1) // [36, 59]
	scans := cs.scanRanges.Load()
	series, err := e.InfectedExposureSeries(36, 59, []int{7, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := cs.scanRanges.Load() - scans; got != 0 {
		t.Errorf("series over the window a census tallied made %d scans, want none", got)
	}
	if want, _ := fresh.InfectedExposureSeries(36, 59, infected); !reflect.DeepEqual(series, want) {
		t.Errorf("series after the census = %v, a fresh engine's %v", series, want)
	}
	if want := fresh.CodeCensus(infected, 24, -1); !reflect.DeepEqual(census, want) {
		t.Errorf("census = %v, a fresh engine's %v", census, want)
	}

	if _, err := e.InfectedExposureSeries(0, 23, infected); err != nil {
		t.Fatal(err)
	}
	scans = cs.scanRanges.Load()
	census = e.CodeCensus(infected, 24, 23)
	if got := cs.scanRanges.Load() - scans; got != 0 {
		t.Errorf("census over the window a series read made %d scans, want none", got)
	}
	if want := fresh.CodeCensus(infected, 24, 23); !reflect.DeepEqual(census, want) {
		t.Errorf("census after the series = %v, a fresh engine's %v", census, want)
	}
}

// TestCodeCensusBeyondExposureCap checks a census over more stored
// steps than the exposure cache holds. Storing its entries resets the
// cache part-way, so each miss scans most steps again, but the tally
// must still equal HealthCodeFor's, cold and after a write.
func TestCodeCensusBeyondExposureCap(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	store := storage.NewShardedStore(4)
	recs := make([]storage.Record, maxExposureEntries+1000)
	for ti := range recs {
		recs[ti] = storage.Record{User: ti % 50_000, T: ti, Cell: ti * 7 % 16}
	}
	store.InsertBatch(recs)
	e := New(grid, store)
	infected := []int{3, 5}
	check := func(what string) {
		t.Helper()
		want := map[Code]int{CodeGreen: 0, CodeYellow: 0, CodeRed: 0}
		for _, u := range store.Users() {
			want[e.HealthCodeFor(u, infected, 0, -1)]++
		}
		if got := e.CodeCensus(infected, 0, -1); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: census %v, HealthCodeFor tally %v", what, got, want)
		}
		if n := e.Stats().ExposureEntries; n > maxExposureEntries {
			t.Errorf("%s: %d exposure entries, more than the cap of %d", what, n, maxExposureEntries)
		}
	}
	check("cold")
	store.Insert(storage.Record{User: 7, T: 123, Cell: 3})      // a replacement
	store.Insert(storage.Record{User: 60_000, T: 500, Cell: 5}) // a new user
	check("after a write")
}

// writeOnScan inserts rec just before its first ScanRange, as a writer
// racing a miss between the generations it read and its scan would.
type writeOnScan struct {
	storage.Store
	rec  storage.Record
	done bool
}

func (w *writeOnScan) ScanRange(t0, t1 int, fn func(storage.Record) bool) {
	if !w.done {
		w.done = true
		w.Store.Insert(w.rec)
	}
	w.Store.ScanRange(t0, t1, fn)
}

// TestCensusScanRacesNewStep checks a census miss against a step first
// written between its StepGens and its scan, inside a run of steps the
// miss scans in one call. The new step's records must not be filed
// under the next listed step, whose entry would then be served stale.
func TestCensusScanRacesNewStep(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	store := storage.NewShardedStore(4)
	for _, ti := range []int{0, 2, 64} { // 0 and 2 share a run: 64/censusSlices+1 = 3
		store.Insert(storage.Record{User: ti, T: ti, Cell: 0})
	}
	e := New(grid, &writeOnScan{Store: store, rec: storage.Record{User: 9, T: 1, Cell: 3}})
	e.CodeCensus([]int{3}, 0, -1)
	got := e.CodeCensus([]int{3}, 0, -1)
	want := New(grid, store).CodeCensus([]int{3}, 0, -1)
	if !reflect.DeepEqual(got, want) || want[CodeYellow] != 1 {
		t.Errorf("census after a step was written during the scan = %v, a fresh engine's %v (want one yellow)", got, want)
	}
}
