package analytics

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/server/storage"
)

// TestCodeCensusMatchesHealthCodeTally checks the census scan against
// its per-user reference: for random stores, windows and anchors,
// CodeCensus must equal a tally of HealthCodeFor over Users(), and each
// HealthCodeFor must equal a brute-force count over the user's history.
// Writes (new users and replacements) land between queries, so cache
// hits and epoch invalidations are compared too.
func TestCodeCensusMatchesHealthCodeTally(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	for seed := uint64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewPCG(seed, 16))
		shards := 1 // a third of the seeds run the single-lock store
		if seed%3 != 0 {
			shards = 1 + rng.IntN(8)
		}
		store := storage.NewShardedStore(shards)
		e := New(grid, store)
		steps := 1 + rng.IntN(12)
		write := func() {
			store.Insert(storage.Record{
				User: rng.IntN(20),
				T:    rng.IntN(steps),
				Cell: rng.IntN(grid.NumCells()),
			})
		}
		for i := rng.IntN(60); i > 0; i-- {
			write()
		}
		// A late joiner: every record lies after any anchor below `from`.
		for ti, from := steps-1, rng.IntN(steps); ti >= from; ti-- {
			store.Insert(storage.Record{User: 20, T: ti, Cell: rng.IntN(grid.NumCells())})
		}
		for q := 0; q < 20; q++ {
			if rng.IntN(4) == 0 {
				write()
			}
			infected := make([]int, rng.IntN(4)) // empty a quarter of the time
			for i := range infected {
				infected[i] = rng.IntN(grid.NumCells())
			}
			window := rng.IntN(steps+5) - 2 // -2 .. past the history
			var now int
			switch rng.IntN(3) {
			case 0:
				now = -1 - rng.IntN(3) // the store's latest timestep
			case 1:
				now = rng.IntN(steps) // historical
			default:
				now = steps + rng.IntN(3) // beyond MaxT
			}
			want := map[Code]int{CodeGreen: 0, CodeYellow: 0, CodeRed: 0}
			for _, u := range store.Users() {
				code := e.HealthCodeFor(u, infected, window, now)
				if ref := healthCodeRef(store, u, infected, window, now); code != ref {
					t.Fatalf("seed %d query %d (infected %v, window %d, now %d): user %d HealthCodeFor %s, brute-force count %s",
						seed, q, infected, window, now, u, code, ref)
				}
				want[code]++
			}
			if got := e.CodeCensus(infected, window, now); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d query %d (%T, infected %v, window %d, now %d): census %v, HealthCodeFor tally %v",
					seed, q, store, infected, window, now, got, want)
			}
		}
	}
}

// healthCodeRef is HealthCodeFor's reference: it counts the visits to
// infected cells in (now-window, now] over the user's whole history.
func healthCodeRef(store storage.Store, user int, infected []int, window, now int) Code {
	if now < 0 {
		now = store.MaxT()
	}
	visits := 0
	for _, r := range store.UserRecords(user) {
		if (window <= 0 || r.T > now-window && r.T <= now) && slices.Contains(infected, r.Cell) {
			visits++
		}
	}
	return codeOf(visits)
}

// TestCodeCensusSparseTimesteps checks the census over a history whose
// timesteps reach math.MaxInt. A miss must return promptly, because its
// scan costs the records and stored timesteps in the window, not the
// width of the window, and the tally must still equal HealthCodeFor's.
func TestCodeCensusSparseTimesteps(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	for _, store := range []storage.Store{storage.NewShardedStore(1), storage.NewShardedStore(4)} {
		for u := 0; u < 6; u++ {
			for ti := 0; ti < 30; ti++ {
				store.Insert(storage.Record{User: u, T: ti, Cell: (u + ti) % 4})
			}
		}
		store.Insert(storage.Record{User: 6, T: 1 << 40, Cell: 1})
		store.Insert(storage.Record{User: 7, T: 1 << 40, Cell: 2})
		store.Insert(storage.Record{User: 7, T: math.MaxInt, Cell: 1})
		store.Insert(storage.Record{User: 8, T: math.MaxInt - 1, Cell: 1})
		e := New(grid, store)
		infected := []int{1, 2}
		for _, q := range []struct{ window, now int }{
			{0, -1}, {24, -1}, {2, -1}, {24, 1 << 40}, {1 << 41, -1},
			{math.MaxInt, -1}, {0, 29}, {24, 29}, {math.MaxInt, 29},
		} {
			want := map[Code]int{CodeGreen: 0, CodeYellow: 0, CodeRed: 0}
			for _, u := range store.Users() {
				want[e.HealthCodeFor(u, infected, q.window, q.now)]++
			}
			var got map[Code]int
			within(t, fmt.Sprintf("%T census window=%d now=%d", store, q.window, q.now), func() {
				got = e.CodeCensus(infected, q.window, q.now)
			})
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%T window=%d now=%d: census %v, HealthCodeFor tally %v", store, q.window, q.now, got, want)
			}
		}
	}
}

// within fails the test unless f returns in a few seconds: a scan whose
// cost grows with the size of T would run for hours, or forever at
// math.MaxInt.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return within 10s", what)
	}
}
