package analytics

import (
	"testing"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/server/storage"
)

// TestStatsCounters pins the hit/miss accounting: a cold query is a
// miss, its repeat is a hit, and a write in between (bumping the epoch)
// turns the next query back into a miss.
func TestStatsCounters(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	store := storage.NewShardedStore(1)
	e := New(grid, store)
	store.Insert(storage.Record{User: 1, T: 0, Cell: 5})

	if s := e.Stats(); s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("fresh engine stats %+v, want zero counters", s)
	}
	e.DensityAt(0, 2, 2)
	e.DensityAt(0, 2, 2)
	if s := e.Stats(); s.Hits != 1 || s.Misses != 1 || s.DensityEntries != 1 {
		t.Fatalf("after cold+warm density: %+v, want 1 hit, 1 miss, 1 entry", s)
	}

	// A write invalidates the epoch: the same query misses again.
	store.Insert(storage.Record{User: 2, T: 0, Cell: 6})
	e.DensityAt(0, 2, 2)
	if s := e.Stats(); s.Hits != 1 || s.Misses != 2 {
		t.Fatalf("after invalidating write: %+v, want 1 hit, 2 misses", s)
	}

	// The census miss finds step 0 in the exposure entry the first
	// lookup made: one census miss, one per-step hit.
	e.ExposureAt(0, []int{5})
	e.ExposureAt(0, []int{5})
	e.CodeCensus([]int{5}, 1, 0)
	e.CodeCensus([]int{5}, 1, 0)
	s := e.Stats()
	if s.Hits != 4 || s.Misses != 4 {
		t.Fatalf("after exposure+census pairs: %+v, want 4 hits, 4 misses", s)
	}
	if s.ExposureEntries != 1 || s.CensusEntries != 1 {
		t.Fatalf("entry counts %+v, want one exposure and one census entry", s)
	}
}
