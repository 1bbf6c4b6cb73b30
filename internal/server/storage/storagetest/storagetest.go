// Package storagetest is the executable contract of storage.Store:
// one battery, TestStore, that any backend must pass byte-for-byte
// identically. The interface in store.go states the contract in
// prose; this package is what actually enforces it, so a new backend
// (or a refactor of an old one) gets the whole surface — replace
// semantics, pagination, posting-list equivalence, Gen/Epoch cache
// pinning, the StepGens listing, snapshot consistency, batch
// atomicity — for the cost of a three-line test file:
//
//	func TestConformance(t *testing.T) {
//		storagetest.TestStore(t, func(t *testing.T) storage.Store { ... })
//	}
//
// It is wired against every store: Sharded at one shard and at several
// (package storage) and wal. The concurrency cases are deliberately
// run under -race in CI; they are the only place the Scan-vs-InsertBatch
// atomicity and the Gen-pins-cache protocol are exercised against real
// interleavings rather than argued in comments.
package storagetest

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/server/storage"
)

// Factory returns a fresh, empty store for one subtest. Cleanup
// (closing durable backends, removing directories) belongs to the
// factory, via t.Cleanup.
type Factory func(t *testing.T) storage.Store

// rec builds a deterministic record for key (user, t) with payload
// marker cell: two records with the same marker compare equal in the
// fields the battery checks.
func rec(user, t, cell int) storage.Record {
	return storage.Record{
		User:          user,
		T:             t,
		Point:         geo.Pt(float64(cell), float64(user)),
		Cell:          cell,
		PolicyVersion: 1,
	}
}

// TestStore runs the full conformance battery against stores built by
// newStore. Every subtest gets its own fresh store.
func TestStore(t *testing.T, newStore Factory) {
	t.Run("Empty", func(t *testing.T) { testEmpty(t, newStore(t)) })
	t.Run("InsertReplace", func(t *testing.T) { testInsertReplace(t, newStore(t)) })
	t.Run("UserRecordsOrderAndCopies", func(t *testing.T) { testUserRecordsOrderAndCopies(t, newStore(t)) })
	t.Run("Pagination", func(t *testing.T) { testPagination(t, newStore(t)) })
	t.Run("UsersAscending", func(t *testing.T) { testUsersAscending(t, newStore(t)) })
	t.Run("NumUsers", func(t *testing.T) { testNumUsers(t, newStore(t)) })
	t.Run("AtScanRangeEquivalence", func(t *testing.T) { testAtScanRangeEquivalence(t, newStore(t)) })
	t.Run("ScanRangeBoundsAndEarlyStop", func(t *testing.T) { testScanRangeBounds(t, newStore(t)) })
	t.Run("ScanRangeSparseTimesteps", func(t *testing.T) { testScanRangeSparse(t, newStore(t)) })
	t.Run("GenEpochMonotone", func(t *testing.T) { testGenEpochMonotone(t, newStore(t)) })
	t.Run("GenPinsCache", func(t *testing.T) { testGenPinsCache(t, newStore(t)) })
	t.Run("StepGens", func(t *testing.T) { testStepGens(t, newStore(t)) })
	t.Run("BatchAtomicity", func(t *testing.T) { testBatchAtomicity(t, newStore(t)) })
	t.Run("ConcurrentReadersWriters", func(t *testing.T) { testConcurrentReadersWriters(t, newStore(t)) })
}

func testEmpty(t *testing.T, s storage.Store) {
	if got := s.Len(); got != 0 {
		t.Errorf("Len() = %d, want 0", got)
	}
	if got := s.MaxT(); got != -1 {
		t.Errorf("MaxT() = %d, want -1 on an empty store", got)
	}
	if got := s.Users(); len(got) != 0 {
		t.Errorf("Users() = %v, want empty", got)
	}
	if got := s.UserRecords(1); len(got) != 0 {
		t.Errorf("UserRecords(1) = %v, want empty", got)
	}
	if got := s.UserRecordsAfter(1, -1, 0); len(got) != 0 {
		t.Errorf("UserRecordsAfter(1, -1, 0) = %v, want empty", got)
	}
	if got := s.At(0); len(got) != 0 {
		t.Errorf("At(0) = %v, want empty", got)
	}
	if got := s.Gen(0); got != 0 {
		t.Errorf("Gen(0) = %d, want 0 on a fresh store", got)
	}
	if got := s.Epoch(); got != 0 {
		t.Errorf("Epoch() = %d, want 0 on a fresh store", got)
	}
	calls := 0
	s.Scan(func(storage.Record) bool { calls++; return true })
	s.ScanRange(0, 100, func(storage.Record) bool { calls++; return true })
	if calls != 0 {
		t.Errorf("Scan/ScanRange visited %d records on an empty store", calls)
	}
	if got := s.InsertBatch(nil); got != 0 {
		t.Errorf("InsertBatch(nil) = %d, want 0", got)
	}
}

func testInsertReplace(t *testing.T, s storage.Store) {
	if !s.Insert(rec(1, 5, 10)) {
		t.Fatal("first Insert(user=1, t=5) reported a replacement")
	}
	if s.Insert(rec(1, 5, 20)) {
		t.Fatal("re-Insert of (user=1, t=5) reported a new record")
	}
	if got := s.Len(); got != 1 {
		t.Fatalf("Len() after replace = %d, want 1", got)
	}
	if got := s.UserRecords(1); len(got) != 1 || got[0].Cell != 20 {
		t.Fatalf("UserRecords(1) = %v, want exactly the replacement (cell 20)", got)
	}
	if !s.Insert(rec(1, 6, 30)) {
		t.Fatal("Insert at a new timestep reported a replacement")
	}

	// Batch with one new record and one replacement: added counts only
	// the new one, the replacement's value still wins.
	added := s.InsertBatch([]storage.Record{rec(2, 5, 40), rec(1, 6, 50)})
	if added != 1 {
		t.Fatalf("InsertBatch(1 new + 1 replacement) = %d, want 1", added)
	}
	if got := s.UserRecords(1); got[len(got)-1].Cell != 50 {
		t.Fatalf("replacement via batch not visible: %v", got)
	}
	if got := s.Len(); got != 3 {
		t.Fatalf("Len() = %d, want 3", got)
	}
	if got := s.MaxT(); got != 6 {
		t.Fatalf("MaxT() = %d, want 6", got)
	}
}

func testUserRecordsOrderAndCopies(t *testing.T, s storage.Store) {
	for _, tt := range []int{5, 1, 3} {
		s.Insert(rec(7, tt, tt))
	}
	got := s.UserRecords(7)
	if len(got) != 3 || got[0].T != 1 || got[1].T != 3 || got[2].T != 5 {
		t.Fatalf("UserRecords(7) = %v, want ascending T [1 3 5]", got)
	}
	// The returned slice must be the caller's to mutate.
	got[0].Cell = 999
	if again := s.UserRecords(7); again[0].Cell == 999 {
		t.Fatal("UserRecords returned a slice aliasing store internals")
	}
}

func testPagination(t *testing.T, s storage.Store) {
	for tt := 0; tt < 10; tt++ {
		s.Insert(rec(9, tt, tt))
	}
	if got := s.UserRecordsAfter(9, -1, 0); len(got) != 10 {
		t.Fatalf("UserRecordsAfter(9, -1, 0) returned %d records, want all 10 (limit<=0 means no limit)", len(got))
	}
	got := s.UserRecordsAfter(9, 3, 2)
	if len(got) != 2 || got[0].T != 4 || got[1].T != 5 {
		t.Fatalf("UserRecordsAfter(9, 3, 2) = %v, want T=[4 5] (strictly after 3)", got)
	}
	if got := s.UserRecordsAfter(9, 9, 5); len(got) != 0 {
		t.Fatalf("UserRecordsAfter(9, 9, 5) = %v, want empty", got)
	}
	if got := s.UserRecordsAfter(9, 4, -1); len(got) != 5 {
		t.Fatalf("UserRecordsAfter(9, 4, -1) returned %d records, want 5", len(got))
	}
	if got := s.UserRecordsAfter(99, -1, 10); len(got) != 0 {
		t.Fatalf("UserRecordsAfter(99, -1, 10) = %v for a user with no records, want empty", got)
	}
	// Cursor walk: paging by 3 must reconstruct the full history.
	var walked []storage.Record
	after := -1
	for {
		page := s.UserRecordsAfter(9, after, 3)
		if len(page) == 0 {
			break
		}
		walked = append(walked, page...)
		after = page[len(page)-1].T
	}
	if len(walked) != 10 {
		t.Fatalf("cursor walk reconstructed %d records, want 10", len(walked))
	}
	for i, r := range walked {
		if r.T != i {
			t.Fatalf("cursor walk out of order at %d: %v", i, walked)
		}
	}
}

func testUsersAscending(t *testing.T, s storage.Store) {
	ids := []int{12, 3, 7, 0, 25, 14, 1, 9}
	for _, u := range ids {
		s.Insert(rec(u, 0, u))
		s.Insert(rec(u, 1, u)) // a second record must not duplicate the ID
	}
	got := s.Users()
	if len(got) != len(ids) {
		t.Fatalf("Users() has %d entries, want %d: %v", len(got), len(ids), got)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("Users() not strictly ascending: %v", got)
		}
	}
}

// testNumUsers: NumUsers equals len(Users()) on an empty store, after
// re-inserts of a user, and after concurrent writers that share users
// join.
func testNumUsers(t *testing.T, s storage.Store) {
	check := func(when string) {
		t.Helper()
		if n, users := s.NumUsers(), s.Users(); n != len(users) {
			t.Fatalf("%s: NumUsers() = %d, len(Users()) = %d", when, n, len(users))
		}
	}
	check("empty")
	s.Insert(rec(4, 0, 1))
	s.Insert(rec(4, 0, 2)) // replaces
	s.Insert(rec(4, 3, 3))
	s.InsertBatch([]storage.Record{rec(4, 3, 4), rec(9, 3, 4), rec(4, 5, 5)})
	check("after re-inserts")
	if n := s.NumUsers(); n != 2 {
		t.Fatalf("NumUsers() = %d after inserts for users 4 and 9, want 2", n)
	}
	const writers, users = 4, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for u := 0; u < users; u++ { // every writer writes every user
				if u%2 == 0 {
					s.Insert(rec(u, w, u))
				} else {
					s.InsertBatch([]storage.Record{rec(u, w, u), rec(u, w+writers, u)})
				}
				s.NumUsers()
			}
		}(w)
	}
	wg.Wait()
	check("after the concurrent writers join")
	if n := s.NumUsers(); n != users { // 4 and 9 are among them
		t.Fatalf("NumUsers() = %d after the writers join, want %d", n, users)
	}
}

// gridStore populates users 1..users with records at t 0..steps-1,
// cell = user*100 + t.
func gridStore(s storage.Store, users, steps int) {
	var batch []storage.Record
	for u := 1; u <= users; u++ {
		for tt := 0; tt < steps; tt++ {
			batch = append(batch, rec(u, tt, u*100+tt))
		}
	}
	s.InsertBatch(batch)
}

func testAtScanRangeEquivalence(t *testing.T, s storage.Store) {
	const users, steps = 6, 5
	gridStore(s, users, steps)

	for tt := 0; tt < steps; tt++ {
		at := s.At(tt)
		if len(at) != users {
			t.Fatalf("At(%d) returned %d records, want %d", tt, len(at), users)
		}
		for i, r := range at {
			if r.T != tt {
				t.Fatalf("At(%d) returned record at T=%d", tt, r.T)
			}
			if i > 0 && at[i-1].User >= r.User {
				t.Fatalf("At(%d) not ordered by user: %v", tt, at)
			}
			if r.Cell != r.User*100+tt {
				t.Fatalf("At(%d) returned stale value for user %d: cell %d", tt, r.User, r.Cell)
			}
		}
		// Posting-list equivalence: ScanRange(t, t) visits the same
		// record set At(t) returns.
		seen := make(map[int]storage.Record)
		s.ScanRange(tt, tt, func(r storage.Record) bool {
			if r.T != tt {
				t.Fatalf("ScanRange(%d, %d) visited T=%d", tt, tt, r.T)
			}
			if _, dup := seen[r.User]; dup {
				t.Fatalf("ScanRange(%d, %d) visited user %d twice", tt, tt, r.User)
			}
			seen[r.User] = r
			return true
		})
		if len(seen) != users {
			t.Fatalf("ScanRange(%d, %d) visited %d records, want %d", tt, tt, len(seen), users)
		}
		for _, r := range at {
			if seen[r.User] != r {
				t.Fatalf("ScanRange and At disagree for user %d at t=%d: %v vs %v", r.User, tt, seen[r.User], r)
			}
		}
	}

	// Full-range scan: ascending T, every record exactly once.
	lastT := -1
	visited := 0
	s.ScanRange(0, steps-1, func(r storage.Record) bool {
		if r.T < lastT {
			t.Fatalf("ScanRange T went backwards: %d after %d", r.T, lastT)
		}
		lastT = r.T
		visited++
		return true
	})
	if visited != users*steps {
		t.Fatalf("ScanRange(0, %d) visited %d records, want %d", steps-1, visited, users*steps)
	}

	// Scan: every record exactly once, any order.
	type key struct{ u, t int }
	scanSeen := make(map[key]bool)
	s.Scan(func(r storage.Record) bool {
		k := key{r.User, r.T}
		if scanSeen[k] {
			t.Fatalf("Scan visited (%d, %d) twice", r.User, r.T)
		}
		scanSeen[k] = true
		return true
	})
	if len(scanSeen) != users*steps {
		t.Fatalf("Scan visited %d records, want %d", len(scanSeen), users*steps)
	}
}

func testScanRangeBounds(t *testing.T, s storage.Store) {
	const users, steps = 3, 4
	gridStore(s, users, steps)

	count := func(t0, t1 int) int {
		n := 0
		s.ScanRange(t0, t1, func(storage.Record) bool { n++; return true })
		return n
	}
	if got := count(-100, 100); got != users*steps {
		t.Errorf("ScanRange(-100, 100) visited %d, want %d (bounds clamp)", got, users*steps)
	}
	if got := count(2, 1); got != 0 {
		t.Errorf("ScanRange(2, 1) visited %d, want 0 (inverted range)", got)
	}
	if got := count(steps, steps+10); got != 0 {
		t.Errorf("ScanRange past MaxT visited %d, want 0", got)
	}

	// Early stop: fn returning false ends the walk immediately.
	visits := 0
	s.ScanRange(0, steps-1, func(storage.Record) bool { visits++; return false })
	if visits != 1 {
		t.Errorf("ScanRange early stop visited %d records, want 1", visits)
	}
	visits = 0
	s.Scan(func(storage.Record) bool { visits++; return false })
	if visits != 1 {
		t.Errorf("Scan early stop visited %d records, want 1", visits)
	}
}

// testScanRangeSparse checks ScanRange over a sparse history whose
// timesteps reach math.MaxInt: it visits exactly the records in range,
// in ascending T, and returns promptly, because its cost follows the
// number of stored timesteps, not the size of T.
func testScanRangeSparse(t *testing.T, s storage.Store) {
	const users = 3
	steps := []int{0, 1, 1 << 40, math.MaxInt - 1, math.MaxInt}
	for _, tt := range steps {
		for u := 0; u < users; u++ {
			s.Insert(rec(u, tt, u))
		}
	}
	if got := s.MaxT(); got != math.MaxInt {
		t.Fatalf("MaxT() = %d, want math.MaxInt", got)
	}
	for _, c := range []struct {
		t0, t1 int
		want   []int // the timesteps in range
	}{
		{0, math.MaxInt, steps},
		{-5, math.MaxInt, steps},
		{0, 1, steps[:2]},
		{2, 1 << 41, []int{1 << 40}},
		{2, 1<<40 - 1, nil},
		{math.MaxInt - 1, math.MaxInt, steps[3:]},
		{math.MaxInt, math.MaxInt, steps[4:]},
	} {
		var want, got []int // T of every record, in visiting order
		for _, tt := range c.want {
			for range users {
				want = append(want, tt)
			}
		}
		within(t, fmt.Sprintf("ScanRange(%d, %d)", c.t0, c.t1), func() {
			s.ScanRange(c.t0, c.t1, func(r storage.Record) bool { got = append(got, r.T); return true })
		})
		if !slices.Equal(got, want) {
			t.Errorf("ScanRange(%d, %d) visited timesteps %v, want %v", c.t0, c.t1, got, want)
		}
	}
	visits := 0
	within(t, "ScanRange early stop at math.MaxInt", func() {
		s.ScanRange(math.MaxInt, math.MaxInt, func(storage.Record) bool { visits++; return false })
	})
	if visits != 1 {
		t.Errorf("ScanRange early stop at math.MaxInt visited %d records, want 1", visits)
	}
}

// within fails the test unless f returns in a few seconds: a walk whose
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

func testGenEpochMonotone(t *testing.T, s storage.Store) {
	g5, g6, e := s.Gen(5), s.Gen(6), s.Epoch()

	s.Insert(rec(1, 5, 1))
	if got := s.Gen(5); got <= g5 {
		t.Fatalf("Gen(5) = %d after insert, want > %d", got, g5)
	}
	if got := s.Gen(6); got != g6 {
		t.Fatalf("Gen(6) = %d after insert at t=5, want unchanged %d", got, g6)
	}
	if got := s.Epoch(); got <= e {
		t.Fatalf("Epoch() = %d after insert, want > %d", got, e)
	}

	// A replacement changes visible data, so it must bump both — this
	// is what keeps analytics caches honest on re-sends.
	g5, e = s.Gen(5), s.Epoch()
	s.Insert(rec(1, 5, 2))
	if got := s.Gen(5); got <= g5 {
		t.Fatalf("Gen(5) = %d after replacement, want > %d", got, g5)
	}
	if got := s.Epoch(); got <= e {
		t.Fatalf("Epoch() = %d after replacement, want > %d", got, e)
	}

	// Batches bump the generation of every touched timestep.
	g5, g6 = s.Gen(5), s.Gen(6)
	s.InsertBatch([]storage.Record{rec(2, 5, 3), rec(2, 6, 3)})
	if got := s.Gen(5); got <= g5 {
		t.Fatalf("Gen(5) = %d after batch, want > %d", got, g5)
	}
	if got := s.Gen(6); got <= g6 {
		t.Fatalf("Gen(6) = %d after batch, want > %d", got, g6)
	}
}

// testStepGens checks StepGens on an empty store, a dense history and
// sparse timesteps up to math.MaxInt: it lists, in ascending T, exactly
// the timesteps of [t0, t1] that hold a record, each with its Gen, and
// returns promptly however large T is.
func testStepGens(t *testing.T, s storage.Store) {
	var stored []int // every timestep written so far, ascending
	check := func(t0, t1 int) {
		t.Helper()
		var want []storage.StepGen
		for _, tt := range stored {
			if t0 <= tt && tt <= t1 {
				want = append(want, storage.StepGen{T: tt, Gen: s.Gen(tt)})
			}
		}
		var got []storage.StepGen
		within(t, fmt.Sprintf("StepGens(%d, %d)", t0, t1), func() { got = s.StepGens(t0, t1) })
		if !slices.Equal(got, want) {
			t.Errorf("StepGens(%d, %d) = %v, want %v", t0, t1, got, want)
		}
	}
	ranges := [][2]int{
		{0, math.MaxInt}, {math.MinInt, math.MaxInt}, {-5, 3}, {3, 2}, {2, 2},
		{-10, -1}, {6, 8}, {6, 1<<40 - 1}, {1 << 40, 1 << 40}, {2, 1 << 41},
		{math.MaxInt - 1, math.MaxInt}, {math.MaxInt, math.MaxInt}, {math.MaxInt, 0},
	}
	for _, r := range ranges {
		check(r[0], r[1])
	}

	gridStore(s, 3, 6)
	s.Insert(rec(1, 2, 7)) // replacements give step 2 a larger Gen
	s.Insert(rec(2, 2, 8))
	s.Insert(rec(1, 7, 1)) // 6 and 8 stay empty inside a dense range
	s.Insert(rec(2, 9, 1))
	stored = []int{0, 1, 2, 3, 4, 5, 7, 9}
	for _, r := range ranges {
		check(r[0], r[1])
	}
	if g2, g3 := s.Gen(2), s.Gen(3); g2 <= g3 {
		t.Errorf("Gen(2) = %d after two replacements, want more than Gen(3) = %d", g2, g3)
	}

	for _, tt := range []int{1 << 40, math.MaxInt - 1, math.MaxInt} {
		s.Insert(rec(4, tt, 1))
	}
	stored = append(stored, 1<<40, math.MaxInt-1, math.MaxInt)
	for _, r := range ranges {
		check(r[0], r[1])
	}
}

// testGenPinsCache drives the analytics-cache protocol against a
// concurrent writer: read Gen(t), compute over At/ScanRange, read
// Gen(t) again — if the generation did not move, the computed view
// must be internally consistent (here: all records carry the same
// round marker, because every batch writes one round). This is
// exactly how the analytics engine validates its epoch-versioned
// caches.
func testGenPinsCache(t *testing.T, s storage.Store) {
	const (
		users   = 8
		tPinned = 3
		rounds  = 300
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 1; round <= rounds; round++ {
			batch := make([]storage.Record, 0, users)
			for u := 0; u < users; u++ {
				batch = append(batch, rec(u, tPinned, round))
			}
			s.InsertBatch(batch)
		}
	}()

	pinned := 0
	for alive := true; alive; {
		select {
		case <-done:
			alive = false // one final read below, then exit
		default:
		}
		g0 := s.Gen(tPinned)
		at := s.At(tPinned)
		var scanned []storage.Record
		s.ScanRange(tPinned, tPinned, func(r storage.Record) bool {
			scanned = append(scanned, r)
			return true
		})
		g1 := s.Gen(tPinned)
		if g0 != g1 || len(at) == 0 {
			continue // interleaved by a write; the cache would retry
		}
		pinned++
		for _, r := range at[1:] {
			if r.Cell != at[0].Cell {
				t.Errorf("Gen(t) stable across read but At(t) mixes rounds %d and %d", at[0].Cell, r.Cell)
			}
		}
		if len(scanned) != len(at) {
			t.Errorf("Gen(t) stable but ScanRange saw %d records vs At's %d", len(scanned), len(at))
		}
		for _, r := range scanned {
			if r.Cell != at[0].Cell {
				t.Errorf("Gen(t) stable but ScanRange mixes rounds %d and %d", at[0].Cell, r.Cell)
			}
		}
		if t.Failed() {
			break
		}
		// On a single-core box the writer goroutine only runs when the
		// reader yields; without this the whole read loop can finish
		// before the first batch lands.
		runtime.Gosched()
	}
	<-done
	if pinned == 0 {
		t.Error("no read ever observed a stable generation — the cache-pinning check had no coverage")
	}
	if g := s.Gen(tPinned); g == 0 {
		t.Error("Gen(tPinned) = 0 after hundreds of writes")
	}
}

// testBatchAtomicity pins the InsertBatch visibility contract: a
// concurrent Scan/ScanRange sees a batch entirely or not at all. Each
// batch writes all users at one unique timestep, so any t observed
// with 0 < count < users is a torn batch.
func testBatchAtomicity(t *testing.T, s storage.Store) {
	const (
		users   = 16
		batches = 120
		scans   = 150
	)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < batches; b++ {
			batch := make([]storage.Record, 0, users)
			for u := 0; u < users; u++ {
				batch = append(batch, rec(u, b, b))
			}
			s.InsertBatch(batch)
		}
	}()

	check := func(counts map[int]int, how string) {
		for tt, n := range counts {
			if n != users {
				t.Errorf("%s observed torn batch at t=%d: %d of %d records", how, tt, n, users)
			}
		}
	}
	for i := 0; i < scans; i++ {
		counts := make(map[int]int)
		s.Scan(func(r storage.Record) bool { counts[r.T]++; return true })
		check(counts, "Scan")
		counts = make(map[int]int)
		s.ScanRange(0, batches, func(r storage.Record) bool { counts[r.T]++; return true })
		check(counts, "ScanRange")
		if t.Failed() {
			break
		}
		runtime.Gosched() // let the writer make progress on a single core
	}
	wg.Wait()
	if got := s.Len(); got != users*batches {
		t.Fatalf("Len() after all batches = %d, want %d", got, users*batches)
	}
}

// testConcurrentReadersWriters is the race-mode stress case: several
// writers (inserts, re-sends, batches) against several readers
// touching every read entry point. Correctness checks happen after
// the join; while running, the value is tripping the race detector
// (and store-internal invariants like the wal's stripe locking) on
// real interleavings.
func testConcurrentReadersWriters(t *testing.T, s storage.Store) {
	const (
		writers = 4
		readers = 3
		rounds  = 80
		perU    = 10 // users per writer
		// steps is coprime with the 3-way write-style cycle below, so
		// every style class (r ≡ 0, 1, 2 mod 3) covers every timestep —
		// with a common factor, some timesteps would never be written.
		steps = 5
	)
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			base := w * perU
			for r := 0; r < rounds; r++ {
				switch r % 3 {
				case 0: // single inserts
					for u := base; u < base+perU; u++ {
						s.Insert(rec(u, r%steps, r))
					}
				case 1: // batch
					var batch []storage.Record
					for u := base; u < base+perU; u++ {
						batch = append(batch, rec(u, r%steps, r))
					}
					s.InsertBatch(batch)
				case 2: // re-sends (replacements)
					for u := base; u < base+perU; u++ {
						s.Insert(rec(u, (r+steps-1)%steps, r))
					}
				}
				runtime.Gosched()
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Len()
				s.MaxT()
				s.Users()
				s.NumUsers()
				s.UserRecords(r * perU)
				s.UserRecordsAfter(r*perU, 2, 3)
				s.At(r % steps)
				s.Gen(r % steps)
				s.Epoch()
				n := 0
				s.ScanRange(0, steps, func(storage.Record) bool { n++; return n < 1000 })
				s.Scan(func(storage.Record) bool { n++; return n < 2000 })
				runtime.Gosched()
			}
		}(r)
	}

	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	// Post-join invariants: every user holds one record per timestep,
	// strictly ascending; totals and the newest timestep agree.
	users := s.Users()
	if len(users) != writers*perU {
		t.Fatalf("Users() has %d entries, want %d", len(users), writers*perU)
	}
	total := 0
	for _, u := range users {
		recs := s.UserRecords(u)
		total += len(recs)
		for i := 1; i < len(recs); i++ {
			if recs[i-1].T >= recs[i].T {
				t.Fatalf("user %d records not strictly ascending in T: %v", u, recs)
			}
		}
		if len(recs) != steps {
			t.Fatalf("user %d has %d records, want %d", u, len(recs), steps)
		}
	}
	if got := s.Len(); got != total {
		t.Fatalf("Len() = %d but per-user sum = %d", got, total)
	}
	if got := s.MaxT(); got != steps-1 {
		t.Fatalf("MaxT() = %d, want %d", got, steps-1)
	}
}
