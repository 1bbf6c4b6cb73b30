package analytics

import (
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/server/storage"
)

// TestEngineConcurrentWithShardedStore is the go test -race target for
// the read path: sharded inserts (single and batch, including
// replacements) race with ScanRange/At and every Engine query. When the
// writers finish, every cached aggregate must equal an uncached
// recompute — a fresh Engine over the same store, whose first query
// cannot hit a cache.
func TestEngineConcurrentWithShardedStore(t *testing.T) {
	grid := geo.MustGrid(8, 8, 1)
	store := storage.NewShardedStore(8)
	e := New(grid, store)
	infected := []int{3, 17, 40}
	windows := []int{1, 5, 24}

	const (
		writers  = 6
		readers  = 6
		steps    = 25
		writeOps = 400
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(seed), 99))
			var batch []storage.Record
			for i := 0; i < writeOps; i++ {
				rec := storage.Record{
					// Few users per writer so replacements happen often.
					User: seed*10 + int(rng.Int64N(10)),
					T:    int(rng.Int64N(steps)),
					Cell: int(rng.Int64N(int64(grid.NumCells()))),
				}
				switch i % 3 {
				case 0:
					store.Insert(rec)
				case 1:
					batch = append(batch, rec)
				default:
					if len(batch) > 4 {
						store.InsertBatch(batch)
						batch = batch[:0]
					} else {
						store.Insert(rec)
					}
				}
			}
			store.InsertBatch(batch)
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(seed), 7))
			for i := 0; i < 200; i++ {
				ti := int(rng.Int64N(steps))
				window := windows[rng.IntN(len(windows))]
				switch i % 7 {
				case 0:
					e.DensityAt(ti, 2, 2)
				case 1:
					if _, err := e.DensitySeries(0, steps-1, 4, 4); err != nil {
						t.Error(err)
					}
				case 2:
					e.ExposureAt(ti, infected)
				case 3:
					// The series and the census fill and read the same
					// per-step exposure entries.
					if _, err := e.InfectedExposureSeries(max(ti-window+1, 0), ti, infected); err != nil {
						t.Error(err)
					}
				case 4:
					// Users() is read after the census's last scan, so
					// every user it counted is listed: green stays >= 0
					// while writers add users between scans.
					if c := e.CodeCensus(infected, window, steps-1); c[CodeGreen] < 0 {
						t.Errorf("census during writes = %v, green below zero", c)
					}
				case 5:
					store.At(ti)
				default:
					store.ScanRange(0, ti, func(storage.Record) bool { return true })
				}
			}
		}(r)
	}
	wg.Wait()

	// Quiesced: cached results must match an uncached recompute.
	fresh := New(grid, store)
	for ti := 0; ti < steps; ti++ {
		if got, want := e.DensityAt(ti, 2, 2), fresh.DensityAt(ti, 2, 2); !reflect.DeepEqual(got, want) {
			t.Fatalf("density at t=%d: cached %v, recomputed %v", ti, got, want)
		}
		if got, want := e.ExposureAt(ti, infected), fresh.ExposureAt(ti, infected); got != want {
			t.Fatalf("exposure at t=%d: cached %d, recomputed %d", ti, got, want)
		}
		// The cached density must also agree with a raw index scan.
		counts := make([]int, grid.NumRegions(2, 2))
		store.ScanRange(ti, ti, func(rec storage.Record) bool {
			counts[grid.RegionOf(rec.Cell, 2, 2)]++
			return true
		})
		if got := e.DensityAt(ti, 2, 2); !reflect.DeepEqual(got, counts) {
			t.Fatalf("density at t=%d: cached %v, raw scan %v", ti, got, counts)
		}
	}
	for _, w := range windows {
		got, _ := e.InfectedExposureSeries(steps-w, steps-1, infected)
		want, _ := fresh.InfectedExposureSeries(steps-w, steps-1, infected)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("exposure series over the last %d steps: cached %v, recomputed %v", w, got, want)
		}
		if got, want := e.CodeCensus(infected, w, steps-1), fresh.CodeCensus(infected, w, steps-1); !reflect.DeepEqual(got, want) {
			t.Fatalf("census window %d: cached %v, recomputed %v", w, got, want)
		}
	}
	if got, want := e.CodeCensus(infected, 0, -1), fresh.CodeCensus(infected, 0, -1); !reflect.DeepEqual(got, want) {
		t.Fatalf("all-history census: cached %v, recomputed %v", got, want)
	}
}
