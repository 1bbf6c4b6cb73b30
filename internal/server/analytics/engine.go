package analytics

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/server/storage"
)

// Cache size caps. Keys are query shapes ((t, block dims) or (range,
// infected set)), not data, so these are generous; on overflow the map
// is reset wholesale rather than LRU-tracked — refilling is one
// recompute per hot key.
const (
	maxDensityEntries  = 1 << 16
	maxExposureEntries = 1 << 16
	maxCensusEntries   = 1 << 12
)

// censusSlices caps the ScanRange calls of one census miss or exposure
// series. A call read-locks every shard of a sharded store for its
// whole walk, so a miss scans no run of steps wider than its window
// over censusSlices, and a writer waits for one run, not the whole
// window: a day of hourly steps is walked a step at a time. The cap
// keeps the number of calls of a cold census independent of the
// window's width.
const censusSlices = 32

// MaxSeriesSpan bounds one series query's timestep count: a series
// costs O(t1-t0) in time and memory, so an unbounded span would let one
// call allocate without limit. It is deliberately far below the cache
// capacity so no single query can churn the whole density cache.
const MaxSeriesSpan = 10_000

type densityKey struct{ t, blockRows, blockCols int }

type densityEntry struct {
	gen    uint64
	counts []int
}

// exposureEntry holds the IDs of the users with a record in an infected
// cell at one timestep; its exposure count is their number, since
// ingest keeps at most one record per (user, t). ExposureAt and
// CodeCensus share the entries, and the slice is shared with every
// caller that reads it, so nothing writes to it once it is cached.
type exposureEntry struct {
	gen   uint64
	users []int
}

type censusKey struct {
	window, now int
	infected    string
}

type censusEntry struct {
	epoch  uint64
	census map[Code]int
}

// Engine serves the aggregate queries from epoch-versioned caches over
// a Store. It is safe for concurrent use; concurrent misses on the same
// key recompute redundantly rather than blocking each other.
type Engine struct {
	grid  *geo.Grid
	store storage.Store

	// Cache effectiveness counters. A hit is a lookup answered from a
	// cache entry whose generation still matches the store; everything
	// else (cold key or stale entry) is a miss followed by a recompute.
	hits   atomic.Uint64
	misses atomic.Uint64

	mu        sync.RWMutex
	density   map[densityKey]densityEntry
	exposure  map[string]map[int]exposureEntry // infected-set key → t → entry
	exposures int                              // entries across the inner maps
	census    map[censusKey]censusEntry
}

// Stats is a point-in-time snapshot of the engine's cache behavior:
// cumulative hit/miss counters plus the live entry count per cache.
type Stats struct {
	Hits            uint64
	Misses          uint64
	DensityEntries  int
	ExposureEntries int
	CensusEntries   int
}

// Stats returns the engine's cache counters. Hits and Misses are
// cumulative since construction; the entry counts are current sizes.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return Stats{
		Hits:            e.hits.Load(),
		Misses:          e.misses.Load(),
		DensityEntries:  len(e.density),
		ExposureEntries: e.exposures,
		CensusEntries:   len(e.census),
	}
}

// New creates an engine over the grid and store.
func New(grid *geo.Grid, store storage.Store) *Engine {
	return &Engine{
		grid:     grid,
		store:    store,
		density:  make(map[densityKey]densityEntry),
		exposure: make(map[string]map[int]exposureEntry),
		census:   make(map[censusKey]censusEntry),
	}
}

// checkBlocks refuses a region block of less than one cell a side,
// which would divide by zero or index a negative region.
func checkBlocks(blockRows, blockCols int) error {
	if blockRows < 1 || blockCols < 1 {
		return fmt.Errorf("analytics: block size %d×%d, want at least 1×1", blockRows, blockCols)
	}
	return nil
}

// DensityAt returns the number of released locations per
// blockRows×blockCols region at timestep t — the location-monitoring
// aggregate — or nil for a block of less than one cell a side. The
// returned slice is the caller's to keep.
func (e *Engine) DensityAt(t, blockRows, blockCols int) []int {
	if checkBlocks(blockRows, blockCols) != nil {
		return nil
	}
	key := densityKey{t: t, blockRows: blockRows, blockCols: blockCols}
	gen := e.store.Gen(t) // before the scan: see the coherence note above
	e.mu.RLock()
	ent, ok := e.density[key]
	e.mu.RUnlock()
	if ok && ent.gen == gen {
		e.hits.Add(1)
		return append([]int(nil), ent.counts...)
	}
	e.misses.Add(1)
	counts := make([]int, e.grid.NumRegions(blockRows, blockCols))
	e.store.ScanRange(t, t, func(rec storage.Record) bool {
		counts[e.grid.RegionOf(rec.Cell, blockRows, blockCols)]++
		return true
	})
	e.mu.Lock()
	if len(e.density) >= maxDensityEntries {
		e.density = make(map[densityKey]densityEntry)
	}
	e.density[key] = densityEntry{gen: gen, counts: counts}
	e.mu.Unlock()
	return append([]int(nil), counts...)
}

// checkSeriesRange refuses an inverted range and one of more than
// MaxSeriesSpan timesteps, before a series allocates anything.
func checkSeriesRange(t0, t1 int) error {
	if t1 < t0 {
		return fmt.Errorf("analytics: inverted time range [%d, %d]", t0, t1)
	}
	// uint(t1-t0) is the exact width even where t1-t0 overflows int.
	if uint(t1-t0) >= MaxSeriesSpan {
		return fmt.Errorf("analytics: time range [%d, %d] spans more than the limit of %d timesteps",
			t0, t1, MaxSeriesSpan)
	}
	return nil
}

// DensitySeries returns DensityAt for each timestep in [t0, t1], at
// most MaxSeriesSpan of them; a wider range and a block of less than
// one cell a side are errors. Each timestep is cached individually, so
// a repeated dashboard window is served entirely from cache and a write
// to one step evicts only that step's entry.
func (e *Engine) DensitySeries(t0, t1, blockRows, blockCols int) ([][]int, error) {
	if err := checkSeriesRange(t0, t1); err != nil {
		return nil, err
	}
	if err := checkBlocks(blockRows, blockCols); err != nil {
		return nil, err
	}
	out := make([][]int, 0, t1-t0+1)
	for t := t0; ; t++ { // stops at t1 without stepping past it: t1 may be math.MaxInt
		out = append(out, e.DensityAt(t, blockRows, blockCols))
		if t == t1 {
			return out, nil
		}
	}
}

// MovementMatrix returns flows[from][to]: how many users moved from
// region `from` at t1 to region `to` at t2 — the monitor's flows
// between coarse areas — or nil for a block of less than one cell a
// side. A user counts only with a record at both timesteps. It reads
// the store's timestep index on every call and is not cached.
func (e *Engine) MovementMatrix(t1, t2, blockRows, blockCols int) [][]int {
	if checkBlocks(blockRows, blockCols) != nil {
		return nil
	}
	nr := e.grid.NumRegions(blockRows, blockCols)
	flows := make([][]int, nr)
	for i := range flows {
		flows[i] = make([]int, nr)
	}
	to := make(map[int]int) // user → region at t2
	for _, rec := range e.store.At(t2) {
		to[rec.User] = e.grid.RegionOf(rec.Cell, blockRows, blockCols)
	}
	for _, rec := range e.store.At(t1) {
		if dst, ok := to[rec.User]; ok {
			flows[e.grid.RegionOf(rec.Cell, blockRows, blockCols)][dst]++
		}
	}
	return flows
}

// ExposureAt returns how many users reported a location in an infected
// cell at timestep t.
func (e *Engine) ExposureAt(t int, infected []int) int {
	return e.exposureSeries(t, t, infected)[0]
}

// InfectedExposureSeries returns ExposureAt for each timestep in
// [t0, t1], at most MaxSeriesSpan of them — the incidence proxy the
// health authority watches on released data only.
func (e *Engine) InfectedExposureSeries(t0, t1 int, infected []int) ([]int, error) {
	if err := checkSeriesRange(t0, t1); err != nil {
		return nil, err
	}
	return e.exposureSeries(t0, t1, infected), nil
}

// exposureSeries is InfectedExposureSeries over a checked range. Every
// timestep of it, stored or not, gets an exposure entry.
func (e *Engine) exposureSeries(t0, t1 int, infected []int) []int {
	steps := make([]storage.StepGen, 0, t1-t0+1)
	for t := t0; ; t++ { // as in DensitySeries, t1 may be math.MaxInt
		steps = append(steps, storage.StepGen{T: t, Gen: e.store.Gen(t)})
		if t == t1 {
			break
		}
	}
	users := e.exposed(steps, infectedKey(infected), infected)
	out := make([]int, len(users))
	for i, u := range users {
		out[i] = len(u)
	}
	return out
}

// exposed returns, for each of steps (ascending T, each with the Gen
// read before this call), the IDs of the users with a record in an
// infected cell at that step; key is infectedKey(infected). Steps whose
// cached entry still carries their Gen are served from the exposure
// cache, each lookup counting a hit or a miss. The others are scanned
// in runs of consecutive stale steps, one ScanRange per run. No run
// spans more than 1/censusSlices of the steps' span, so a writer waits
// for one run at most, and a cold fill makes at most censusSlices
// scans. The new entries are cached under one write lock. The returned
// slices are shared with the cache and must not be written to.
func (e *Engine) exposed(steps []storage.StepGen, key string, infected []int) [][]int {
	users := make([][]int, len(steps))
	var stale []int // indexes into steps
	e.mu.RLock()
	cached := e.exposure[key]
	for i, sg := range steps {
		if ent, ok := cached[sg.T]; ok && ent.gen == sg.Gen {
			users[i] = ent.users
		} else {
			stale = append(stale, i)
		}
	}
	e.mu.RUnlock()
	e.hits.Add(uint64(len(steps) - len(stale)))
	e.misses.Add(uint64(len(stale)))
	if len(stale) == 0 {
		return users
	}
	inf := cellSet(infected)
	maxRun := (steps[len(steps)-1].T-steps[0].T)/censusSlices + 1
	for lo := 0; lo < len(stale); {
		// Extend the run while the next stale step directly follows in
		// steps and lies within maxRun of the run's first timestep; a
		// difference of timesteps, unlike a sum, cannot overflow.
		hi := lo
		for hi+1 < len(stale) && stale[hi+1] == stale[hi]+1 &&
			steps[stale[hi+1]].T-steps[stale[lo]].T < maxRun {
			hi++
		}
		j := stale[lo]
		e.store.ScanRange(steps[j].T, steps[stale[hi]].T, func(rec storage.Record) bool {
			for steps[j].T < rec.T {
				j++
			}
			// A step first written after the caller listed the stored
			// ones is not in steps: its records are skipped, and its
			// write moved the caller's own pin too.
			if steps[j].T == rec.T && inf[rec.Cell] {
				users[j] = append(users[j], rec.User)
			}
			return true
		})
		lo = hi + 1
	}
	e.mu.Lock()
	m := e.exposure[key]
	for _, i := range stale {
		if e.exposures >= maxExposureEntries {
			e.exposure, e.exposures, m = make(map[string]map[int]exposureEntry), 0, nil
		}
		if m == nil {
			m = make(map[int]exposureEntry)
			e.exposure[key] = m
		}
		n := len(m)
		m[steps[i].T] = exposureEntry{gen: steps[i].Gen, users: users[i]}
		e.exposures += len(m) - n
	}
	e.mu.Unlock()
	return users
}

// cellSet builds a membership set from a cell list.
func cellSet(cells []int) map[int]bool {
	set := make(map[int]bool, len(cells))
	for _, c := range cells {
		set[c] = true
	}
	return set
}

// infectedKey canonicalizes an infected cell list (sorted, deduplicated)
// into a cache-key string, so equivalent sets share cache entries.
func infectedKey(cells []int) string {
	if len(cells) == 0 {
		return ""
	}
	cs := append([]int(nil), cells...)
	sort.Ints(cs)
	var b strings.Builder
	for i, c := range cs {
		if i > 0 && cs[i-1] == c {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(c))
	}
	return b.String()
}
