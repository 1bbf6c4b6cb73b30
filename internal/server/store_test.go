package server

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/pglp/panda/internal/geo"
)

// TestShardedStoreMatchesMemStore feeds both implementations the same
// insert stream (including replacements) and checks every read path
// agrees.
func TestShardedStoreMatchesMemStore(t *testing.T) {
	mem := NewMemStore()
	sharded := NewShardedStore(7)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 2000; i++ {
		rec := Record{
			User: int(rng.Int64N(40)), T: int(rng.Int64N(50)),
			Cell: int(rng.Int64N(64)), PolicyVersion: 1 + int(rng.Int64N(3)),
		}
		ma := mem.Insert(rec)
		sa := sharded.Insert(rec)
		if ma != sa {
			t.Fatalf("insert %d: added mem=%v sharded=%v", i, ma, sa)
		}
	}
	if mem.Len() != sharded.Len() {
		t.Errorf("Len: mem=%d sharded=%d", mem.Len(), sharded.Len())
	}
	if mem.MaxT() != sharded.MaxT() {
		t.Errorf("MaxT: mem=%d sharded=%d", mem.MaxT(), sharded.MaxT())
	}
	if !reflect.DeepEqual(mem.Users(), sharded.Users()) {
		t.Errorf("Users differ: %v vs %v", mem.Users(), sharded.Users())
	}
	for _, u := range mem.Users() {
		if !reflect.DeepEqual(mem.UserRecords(u), sharded.UserRecords(u)) {
			t.Errorf("UserRecords(%d) differ", u)
		}
		if !reflect.DeepEqual(mem.UserRecordsAfter(u, 10, 5), sharded.UserRecordsAfter(u, 10, 5)) {
			t.Errorf("UserRecordsAfter(%d) differ", u)
		}
	}
	for ti := 0; ti < 50; ti++ {
		if !reflect.DeepEqual(mem.At(ti), sharded.At(ti)) {
			t.Errorf("At(%d) differs", ti)
		}
	}
	countScan := func(s Store) int {
		n := 0
		s.Scan(func(Record) bool { n++; return true })
		return n
	}
	if countScan(mem) != countScan(sharded) {
		t.Errorf("Scan counts differ: %d vs %d", countScan(mem), countScan(sharded))
	}
}

func TestUserRecordsAfter(t *testing.T) {
	s := NewMemStore()
	for _, ti := range []int{0, 2, 4, 6, 8} {
		s.Insert(Record{User: 1, T: ti, Cell: 0})
	}
	if got := s.UserRecordsAfter(1, -1, 0); len(got) != 5 {
		t.Errorf("no limit from start: %d records, want 5", len(got))
	}
	got := s.UserRecordsAfter(1, 2, 2)
	if len(got) != 2 || got[0].T != 4 || got[1].T != 6 {
		t.Errorf("after 2 limit 2 = %+v, want T=4,6", got)
	}
	if got := s.UserRecordsAfter(1, 8, 10); len(got) != 0 {
		t.Errorf("past the end = %+v, want empty", got)
	}
	if got := s.UserRecordsAfter(99, -1, 10); len(got) != 0 {
		t.Errorf("unknown user = %+v, want empty", got)
	}
}

// TestShardedStoreConcurrent hammers a sharded store from many
// goroutines mixing single inserts, batch inserts, and every read path —
// the go test -race target for the new locking scheme.
func TestShardedStoreConcurrent(t *testing.T) {
	s := NewShardedStore(8)
	const (
		writers = 8
		readers = 4
		steps   = 300
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(user int) {
			defer wg.Done()
			var batch []Record
			for ti := 0; ti < steps; ti++ {
				rec := Record{User: user, T: ti, Cell: (user + ti) % 64}
				if ti%2 == 0 {
					s.Insert(rec)
				} else {
					batch = append(batch, rec)
				}
			}
			s.InsertBatch(batch)
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				s.At(i % 10)
				s.UserRecords(i % writers)
				s.UserRecordsAfter(i%writers, i%steps, 16)
				s.Users()
				s.Len()
				s.MaxT()
				s.Scan(func(Record) bool { return i%50 != 0 })
			}
		}(r)
	}
	wg.Wait()
	if s.Len() != writers*steps {
		t.Errorf("Len = %d, want %d", s.Len(), writers*steps)
	}
	if s.MaxT() != steps-1 {
		t.Errorf("MaxT = %d, want %d", s.MaxT(), steps-1)
	}
}

// TestDBInsertBatchAtomicValidation: a batch containing an invalid
// record stores nothing.
func TestDBInsertBatchAtomicValidation(t *testing.T) {
	grid := geo.MustGrid(2, 2, 1)
	db := NewDB(grid)
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
	if _, err := NewDBOn(nil, NewMemStore()); err == nil {
		t.Error("nil grid should error")
	}
	if _, err := NewDBOn(grid, nil); err == nil {
		t.Error("nil store should error")
	}
	db, err := NewDBOn(grid, NewShardedStore(2))
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
