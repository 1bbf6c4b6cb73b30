package storage

import (
	"cmp"
	"maps"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// model is the reference TestTimestepIndexMatchesHistory checks the
// store against: plain maps, with no timestep index, shards or locks.
type model struct {
	recs  map[int]map[int]Record // user -> T -> record
	gen   map[int]uint64         // T -> writes touching T
	epoch uint64                 // all writes
}

func (m *model) insert(rec Record) (added bool) {
	if m.recs[rec.User] == nil {
		m.recs[rec.User] = make(map[int]Record)
	}
	_, had := m.recs[rec.User][rec.T]
	m.recs[rec.User][rec.T] = rec
	m.gen[rec.T]++
	m.epoch++
	return !had
}

// inRange returns the model's records with t0 <= T <= t1, ordered by (T, user).
func (m *model) inRange(t0, t1 int) []Record {
	var out []Record
	for _, byT := range m.recs {
		for _, rec := range byT {
			if t0 <= rec.T && rec.T <= t1 {
				out = append(out, rec)
			}
		}
	}
	sortByTUser(out)
	return out
}

func sortByTUser(rs []Record) {
	slices.SortFunc(rs, func(a, b Record) int {
		return cmp.Or(cmp.Compare(a.T, b.T), cmp.Compare(a.User, b.User))
	})
}

// TestTimestepIndexMatchesHistory checks every read path of the store,
// at one shard and at five, against a plain map model after a random
// stream of inserts and batches with replacements. A few records land
// at sparse timesteps far beyond the dense ones, so range walks take
// both branches of walkSteps, and Gen and Epoch must equal the exact
// count of writes.
func TestTimestepIndexMatchesHistory(t *testing.T) {
	const users, dense = 50, 40
	sparse := []int{1 << 40, 1<<40 + 3}
	for _, tc := range []struct {
		name   string
		shards int
	}{{"one-shard", 1}, {"sharded", 5}} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewShardedStore(tc.shards)
			m := &model{recs: make(map[int]map[int]Record), gen: make(map[int]uint64)}
			rng := rand.New(rand.NewPCG(7, 11))
			randRec := func() Record {
				ti := int(rng.Int64N(dense))
				if rng.IntN(50) == 0 {
					ti = sparse[rng.IntN(len(sparse))]
				}
				return Record{
					User: int(rng.Int64N(users)), T: ti,
					Cell: int(rng.Int64N(64)), PolicyVersion: 1,
				}
			}
			for n := 0; n < 3000; {
				if rng.IntN(4) > 0 {
					rec := randRec()
					if got, want := s.Insert(rec), m.insert(rec); got != want {
						t.Fatalf("Insert(%+v) added = %v, want %v", rec, got, want)
					}
					n++
					continue
				}
				batch := make([]Record, 1+rng.IntN(8)) // may repeat a (user, t)
				want := 0
				for i := range batch {
					batch[i] = randRec()
					if m.insert(batch[i]) {
						want++
					}
				}
				if got := s.InsertBatch(batch); got != want {
					t.Fatalf("InsertBatch(%+v) = %d new, want %d", batch, got, want)
				}
				n += len(batch)
			}

			all := m.inRange(math.MinInt, math.MaxInt)
			if got := s.Len(); got != len(all) {
				t.Errorf("Len() = %d, want %d", got, len(all))
			}
			if got, want := s.MaxT(), all[len(all)-1].T; got != want {
				t.Errorf("MaxT() = %d, want %d", got, want)
			}
			wantUsers := slices.Sorted(maps.Keys(m.recs))
			if got := s.Users(); !slices.Equal(got, wantUsers) {
				t.Errorf("Users() = %v, want %v", got, wantUsers)
			}
			for u := -1; u <= users; u++ { // -1 and users were never written
				var hist []Record
				for _, rec := range all {
					if rec.User == u {
						hist = append(hist, rec)
					}
				}
				if got := s.UserRecords(u); !slices.Equal(got, hist) {
					t.Errorf("UserRecords(%d) = %+v, want %+v", u, got, hist)
				}
				for _, p := range [][2]int{{-1, 0}, {-1, 3}, {10, 5}, {dense - 1, 0}, {sparse[0], 1}, {math.MaxInt, 0}} {
					after, limit := p[0], p[1]
					var want []Record
					for _, rec := range hist {
						if rec.T > after && (limit <= 0 || len(want) < limit) {
							want = append(want, rec)
						}
					}
					if got := s.UserRecordsAfter(u, after, limit); !slices.Equal(got, want) {
						t.Errorf("UserRecordsAfter(%d, %d, %d) = %+v, want %+v", u, after, limit, got, want)
					}
				}
			}

			steps := append([]int{-1, dense, sparse[0] - 1, sparse[0] + 1, math.MaxInt}, sparse...)
			for ti := range dense {
				steps = append(steps, ti)
			}
			for _, ti := range steps {
				want := m.inRange(ti, ti) // one timestep: ordered by user
				if got := s.At(ti); !slices.Equal(got, want) {
					t.Errorf("At(%d) = %+v, want %+v", ti, got, want)
				}
				if got := s.Gen(ti); got != m.gen[ti] {
					t.Errorf("Gen(%d) = %d, want %d writes", ti, got, m.gen[ti])
				}
			}
			if got := s.Epoch(); got != m.epoch {
				t.Errorf("Epoch() = %d, want %d writes", got, m.epoch)
			}

			var scanned []Record
			s.Scan(func(rec Record) bool { scanned = append(scanned, rec); return true })
			sortByTUser(scanned)
			if !slices.Equal(scanned, all) {
				t.Errorf("Scan visited %d records, want the model's %d", len(scanned), len(all))
			}
			for _, r := range [][2]int{
				{0, dense - 1}, {5, 5}, {10, 20}, {-5, math.MaxInt}, {25, sparse[0]},
				{dense, sparse[0] - 1}, {sparse[0], math.MaxInt}, {sparse[1] + 1, math.MaxInt},
			} {
				var got []Record
				s.ScanRange(r[0], r[1], func(rec Record) bool { got = append(got, rec); return true })
				if !slices.IsSortedFunc(got, func(a, b Record) int { return cmp.Compare(a.T, b.T) }) {
					t.Errorf("ScanRange(%d, %d) not ascending in T", r[0], r[1])
				}
				sortByTUser(got) // order within one timestep is unspecified
				if want := m.inRange(r[0], r[1]); !slices.Equal(got, want) {
					t.Errorf("ScanRange(%d, %d) visited %d records, want the model's %d", r[0], r[1], len(got), len(want))
				}
			}
		})
	}
}

func TestScanRange(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    Store
	}{
		{"one-shard", NewShardedStore(1)},
		{"sharded", NewShardedStore(3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for u := 0; u < 6; u++ {
				for ti := 0; ti < 20; ti++ {
					tc.s.Insert(Record{User: u, T: ti, Cell: (u + ti) % 9})
				}
			}
			var got []Record
			tc.s.ScanRange(5, 7, func(rec Record) bool {
				got = append(got, rec)
				return true
			})
			if len(got) != 3*6 {
				t.Fatalf("ScanRange(5,7) yielded %d records, want 18", len(got))
			}
			for i := 1; i < len(got); i++ {
				if got[i].T < got[i-1].T {
					t.Fatalf("ScanRange not ascending in T: %d after %d", got[i].T, got[i-1].T)
				}
			}
			// Clamping: a huge t1 must not cost more than the stored range,
			// and negative t0 is treated as 0.
			n := 0
			tc.s.ScanRange(-5, 1<<40, func(Record) bool { n++; return true })
			if n != tc.s.Len() {
				t.Errorf("clamped full range visited %d records, want %d", n, tc.s.Len())
			}
			// Early stop.
			n = 0
			tc.s.ScanRange(0, 19, func(Record) bool { n++; return n < 4 })
			if n != 4 {
				t.Errorf("early-stopped scan visited %d records, want 4", n)
			}
			// Empty range beyond MaxT.
			tc.s.ScanRange(100, 200, func(Record) bool {
				t.Error("scan beyond MaxT yielded a record")
				return false
			})
		})
	}
}

func TestGenerations(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    Store
	}{
		{"one-shard", NewShardedStore(1)},
		{"sharded", NewShardedStore(4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.s
			if s.Gen(0) != 0 || s.Epoch() != 0 {
				t.Fatalf("fresh store: Gen(0)=%d Epoch=%d, want 0/0", s.Gen(0), s.Epoch())
			}
			s.Insert(Record{User: 1, T: 0, Cell: 1})
			s.Insert(Record{User: 2, T: 3, Cell: 2})
			g0, g3 := s.Gen(0), s.Gen(3)
			if g0 == 0 || g3 == 0 {
				t.Fatalf("written timesteps have zero generation: g0=%d g3=%d", g0, g3)
			}
			if s.Gen(1) != 0 {
				t.Errorf("untouched timestep 1 has generation %d", s.Gen(1))
			}
			// A replacement (same user, same t) must bump the generation:
			// the timestep's aggregate changed.
			s.Insert(Record{User: 1, T: 0, Cell: 7})
			if s.Gen(0) <= g0 {
				t.Errorf("replacement did not bump Gen(0): %d -> %d", g0, s.Gen(0))
			}
			// Writes to t=0 must not disturb t=3's generation.
			if s.Gen(3) != g3 {
				t.Errorf("write to t=0 changed Gen(3): %d -> %d", g3, s.Gen(3))
			}
			if s.Epoch() != 3 {
				t.Errorf("Epoch = %d after 3 writes, want 3", s.Epoch())
			}
			// Batches bump per-timestep generations individually.
			e := s.Epoch()
			s.InsertBatch([]Record{{User: 5, T: 3, Cell: 0}, {User: 6, T: 4, Cell: 0}})
			if s.Gen(3) != g3+1 || s.Gen(4) != 1 {
				t.Errorf("after batch: Gen(3)=%d want %d, Gen(4)=%d want 1", s.Gen(3), g3+1, s.Gen(4))
			}
			if s.Epoch() != e+2 {
				t.Errorf("after batch: Epoch=%d want %d", s.Epoch(), e+2)
			}
		})
	}
}
