package analytics

import (
	"math/rand/v2"
	"testing"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/server/storage"
)

var censusSink map[Code]int

// BenchmarkCodeCensus times a census miss on two histories: 300 users
// × 400 steps, and one record per step × 50k steps. On each, a warm
// engine takes one write at the newest step and then a census, the
// dashboard's pattern, and a fresh engine takes a cold all-history
// census, the first after a restart.
func BenchmarkCodeCensus(b *testing.B) {
	grid := geo.MustGrid(32, 32, 1)
	infected := []int{100, 517, 900}
	// build stores perStep records at each of steps timesteps, from
	// consecutive users of 300.
	build := func(perStep, steps int) storage.Store {
		rng := rand.New(rand.NewPCG(1, 2))
		store := storage.NewShardedStore(8)
		recs := make([]storage.Record, 0, perStep*steps)
		for ti := 0; ti < steps; ti++ {
			for k := 0; k < perStep; k++ {
				user := (ti*perStep + k) % 300
				recs = append(recs, storage.Record{User: user, T: ti, Cell: rng.IntN(grid.NumCells())})
			}
		}
		store.InsertBatch(recs)
		return store
	}
	warm := func(store storage.Store, window int) func(b *testing.B) {
		return func(b *testing.B) {
			e := New(grid, store)
			e.CodeCensus(infected, window, -1)
			newest := store.MaxT()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				store.Insert(storage.Record{User: i % 300, T: newest, Cell: i % grid.NumCells()})
				censusSink = e.CodeCensus(infected, window, -1)
			}
		}
	}
	cold := func(store storage.Store) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				censusSink = New(grid, store).CodeCensus(infected, 0, -1)
			}
		}
	}
	dense := build(300, 400)
	b.Run("dense/write-window24", warm(dense, 24))
	b.Run("dense/cold-all", cold(dense))
	sparse := build(1, 50_000)
	b.Run("sparse50k/cold-all", cold(sparse))
	b.Run("sparse50k/write-all", warm(sparse, 0))
}
