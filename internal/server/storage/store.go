package storage

import (
	"slices"
	"sort"
	"sync"
)

// Store is the record-storage contract behind the surveillance database:
// insert (with the contact-tracing replace-on-resend semantics), per-user
// queries, whole-dataset and time-range scans, and write-generation
// counters that let layers above cache aggregates. Implementations must
// be safe for concurrent use. Records handed to a Store are already
// validated and snapped by the DB wrapper; a Store never consults the
// grid.
//
// The in-memory implementation is Sharded (NewShardedStore), whose N
// independent locks let ingestion scale with cores; at one shard it is
// the single-lock store. It maintains a per-timestep secondary index
// (posting lists of records keyed by T) so At and ScanRange cost
// O(records in range) instead of O(all records); a ScanRange wider than
// the index visits only the stored timesteps. The durable wal.Store
// logs every write and keeps its records in a Sharded.
type Store interface {
	// Insert stores a record, replacing any existing record for the same
	// (user, t) pair. It reports whether the record was new (false =
	// replaced a prior release, the re-send path).
	Insert(rec Record) (added bool)
	// InsertBatch stores many records in as few lock acquisitions as the
	// implementation allows and returns how many were new.
	InsertBatch(recs []Record) (added int)
	// Len returns the total number of stored records.
	Len() int
	// MaxT returns the largest timestep of any stored record, -1 if empty.
	MaxT() int
	// UserRecords returns a copy of one user's records in ascending T.
	UserRecords(user int) []Record
	// UserRecordsAfter returns up to limit of the user's records with
	// T > afterT in ascending T — the pagination primitive. limit <= 0
	// means no limit.
	UserRecordsAfter(user, afterT, limit int) []Record
	// Users returns the IDs of users with at least one record, ascending.
	Users() []int
	// NumUsers returns len(Users()) without listing the users.
	NumUsers() int
	// At returns every user's record at timestep t, ordered by user ID.
	At(t int) []Record
	// Scan calls fn for every stored record (order unspecified) and stops
	// early if fn returns false. The scan presents a consistent point-in-
	// time view: no concurrent insert may be half-visible (snapshots
	// depend on this).
	Scan(fn func(Record) bool)
	// ScanRange calls fn for every record with t0 <= T <= t1, in
	// ascending T (order within one timestep unspecified), stopping
	// early if fn returns false. Like Scan it presents a consistent
	// point-in-time view. It is served from the timestep index, so its
	// cost is O(records in range) plus one index lookup per timestep in
	// range, capped at the number of stored timesteps: never O(all
	// records), and never O(t1-t0) over a sparse history.
	ScanRange(t0, t1 int, fn func(Record) bool)
	// Gen returns the write generation of timestep t: a counter bumped
	// by every insert or replacement touching t, 0 if t was never
	// written. Cache layers record Gen(t) *before* reading t's records;
	// a later Gen(t) mismatch proves the cached aggregate is stale.
	// Generations only ever grow.
	Gen(t int) uint64
	// Epoch returns the global write generation: bumped by every insert
	// or replacement anywhere. It orders whole-dataset aggregates
	// (census) the same way Gen orders per-timestep ones.
	Epoch() uint64
	// StepGens lists, in ascending T, each timestep of [t0, t1] that
	// holds a record, with its Gen, read in one consistent pass: a cache
	// of per-timestep aggregates over a window learns which steps to
	// look up and which generations to pin for the cost of one call,
	// not one Gen call per step. Records are never deleted, so Gen(t) > 0
	// exactly when t holds a record and is listed. Like ScanRange it
	// costs O(min(t1-t0, stored timesteps)) and never steps past t1.
	StepGens(t0, t1 int) []StepGen
}

// StepGen is one stored timestep and its write generation, as
// Store.StepGens lists them.
type StepGen struct {
	T   int
	Gen uint64
}

// insertSorted splices rec into rs (ascending T), replacing an existing
// record at the same T. It returns the updated slice and whether the
// record was new.
func insertSorted(rs []Record, rec Record) ([]Record, bool) {
	i := sort.Search(len(rs), func(i int) bool { return rs[i].T >= rec.T })
	if i < len(rs) && rs[i].T == rec.T {
		rs[i] = rec // replace: the re-send semantics of contact tracing
		return rs, false
	}
	rs = append(rs, Record{})
	copy(rs[i+1:], rs[i:])
	rs[i] = rec
	return rs, true
}

// shard is one lock shard of Sharded: a map of per-user record slices
// guarded by one RWMutex, plus the timestep index and write generations
// that back At/ScanRange/Gen. The index holds user IDs, not record
// copies — 8 bytes per record instead of doubling the store — and reads
// resolve each ID against the user's sorted history.
type shard struct {
	mu    sync.RWMutex
	recs  map[int][]Record // per user, ascending T
	byT   map[int][]int    // timestep index: T -> IDs of users with a record at T
	gen   map[int]uint64   // per-timestep write generation
	epoch uint64           // global write generation
	n     int
	maxT  int
}

func newShard() *shard {
	return &shard{
		recs: make(map[int][]Record),
		byT:  make(map[int][]int),
		gen:  make(map[int]uint64),
		maxT: -1,
	}
}

func (s *shard) Insert(rec Record) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.insertLocked(rec)
}

func (s *shard) insertLocked(rec Record) bool {
	rs, added := insertSorted(s.recs[rec.User], rec)
	s.recs[rec.User] = rs
	if added {
		s.n++
	}
	if rec.T > s.maxT {
		s.maxT = rec.T
	}
	if added {
		// A replacement leaves the posting list alone: the user is
		// already listed at this timestep.
		s.byT[rec.T] = append(s.byT[rec.T], rec.User)
	}
	// Replacements bump the generation too: the timestep's aggregate
	// changed even though no record was added.
	s.gen[rec.T]++
	s.epoch++
	return added
}

func (s *shard) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n
}

func (s *shard) MaxT() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.maxT
}

func (s *shard) Gen(t int) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen[t]
}

func (s *shard) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

func (s *shard) UserRecords(user int) []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rs := s.recs[user]
	out := make([]Record, len(rs))
	copy(out, rs)
	return out
}

func (s *shard) UserRecordsAfter(user, afterT, limit int) []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rs := s.recs[user]
	i := sort.Search(len(rs), func(i int) bool { return rs[i].T > afterT })
	rs = rs[i:]
	if limit > 0 && len(rs) > limit {
		rs = rs[:limit]
	}
	out := make([]Record, len(rs))
	copy(out, rs)
	return out
}

// appendUsers appends the shard's user IDs to out, unsorted.
func (s *shard) appendUsers(out []int) []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for u := range s.recs {
		out = append(out, u)
	}
	return out
}

func (s *shard) NumUsers() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.recs)
}

// recordAtLocked resolves one posting-list entry: the record user holds
// at timestep t. The index only lists users that have one; callers hold
// s.mu.
func (s *shard) recordAtLocked(user, t int) Record {
	rs := s.recs[user]
	i := sort.Search(len(rs), func(i int) bool { return rs[i].T >= t })
	return rs[i]
}

// atLocked collects records at t from the timestep index, without
// sorting; callers hold s.mu.
func (s *shard) atLocked(t int) []Record {
	post := s.byT[t]
	if len(post) == 0 {
		return nil
	}
	out := make([]Record, 0, len(post))
	for _, user := range post {
		out = append(out, s.recordAtLocked(user, t))
	}
	return out
}

// walkSteps calls visit, in ascending order, for each timestep of
// [t0, t1] (clamped to [0, MaxT]) that a range walk over the shards'
// timestep indexes must look at, and stops early if visit returns false.
// Callers hold every shard's read lock. A range no wider than the
// indexes' entry count is walked step by step. A wider one visits only
// the steps some index lists, so one record at T = 1<<40 cannot make an
// all-history walk take 1<<40 lookups: the walk costs
// O(min(t1-t0, stored timesteps)) whatever the size of T. Neither walk
// steps past t1, so t1 = math.MaxInt ends.
func walkSteps(shards []*shard, t0, t1 int, visit func(t int) bool) {
	maxT, entries := -1, 0
	for _, sh := range shards {
		maxT = max(maxT, sh.maxT)
		entries += len(sh.byT)
	}
	t0, t1 = max(t0, 0), min(t1, maxT)
	if t0 > t1 {
		return
	}
	if t1-t0 < entries {
		for t := t0; ; t++ {
			if !visit(t) || t == t1 {
				return
			}
		}
	}
	var steps []int
	for _, sh := range shards {
		for t := range sh.byT {
			if t0 <= t && t <= t1 {
				steps = append(steps, t)
			}
		}
	}
	slices.Sort(steps)
	for _, t := range slices.Compact(steps) {
		if !visit(t) {
			return
		}
	}
}

// ShardFor is the single routing function of the record layer: it maps a
// user ID onto one of n shards. Every layer that partitions records by
// user — the sharded memory store's lock shards, the WAL's log stripes —
// must route through this function, so that "the shard a record lives in"
// and "the stripe its log entry lives in" can never disagree. n < 1 is
// treated as 1.
func ShardFor(user, n int) int {
	if n < 2 {
		return 0
	}
	return int(uint(user) % uint(n))
}

// Sharded is the in-memory Store. It distributes users across N
// independently locked shards so concurrent ingestion from different
// users does not contend on one mutex; at one shard it is the
// single-lock store. Cross-user reads (Users, At, Scan, ScanRange, Len,
// MaxT) visit every shard; Gen and Epoch are sums of per-shard
// counters, which stay monotonic because each addend only grows.
//
// Beyond the plain Store interface, Sharded exposes its partition to
// cooperating layers (NumShards, ShardLen, ScanShard, InsertGrouped):
// the WAL uses these to keep one log stripe per memory shard and to
// snapshot a single shard's records under that shard's lock alone.
type Sharded struct {
	shards []*shard
}

// NewSharded returns a store with n independent lock shards keyed by
// user ID (via ShardFor). n < 1 is treated as 1.
func NewSharded(n int) *Sharded {
	if n < 1 {
		n = 1
	}
	s := &Sharded{shards: make([]*shard, n)}
	for i := range s.shards {
		s.shards[i] = newShard()
	}
	return s
}

// NewShardedStore returns NewSharded(n) as a plain Store.
func NewShardedStore(n int) Store { return NewSharded(n) }

// NumShards returns the number of lock shards.
func (s *Sharded) NumShards() int { return len(s.shards) }

// ShardLen returns the record count of shard i alone.
func (s *Sharded) ShardLen(i int) int { return s.shards[i].Len() }

// ScanShard calls fn for every record routed to shard i (order
// unspecified), stopping early if fn returns false. It holds only that
// shard's read lock, so it presents a consistent point-in-time view of
// the shard without blocking writes elsewhere — the primitive behind
// per-stripe WAL snapshots.
func (s *Sharded) ScanShard(i int, fn func(Record) bool) {
	sh := s.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for _, rs := range sh.recs {
		for _, rec := range rs {
			if !fn(rec) {
				return
			}
		}
	}
}

func (s *Sharded) shardOf(user int) *shard {
	return s.shards[ShardFor(user, len(s.shards))]
}

// Insert stores rec in its user's shard, replacing on (user, t); only
// that shard's lock is taken.
func (s *Sharded) Insert(rec Record) bool {
	return s.shardOf(rec.User).Insert(rec)
}

// InsertBatch write-locks every involved shard (in index order, the
// same order Scan uses) before inserting anything, so the whole batch
// becomes visible atomically — a concurrent Scan sees all of it or none
// of it.
func (s *Sharded) InsertBatch(recs []Record) int {
	if len(recs) == 0 {
		return 0
	}
	// The partition scratch is pooled: at ingest rates the per-batch
	// [][]Record (outer slice plus one grown sub-slice per hot shard)
	// was a top allocation site. Records are plain values, so a pooled
	// buffer pins no heap objects between uses.
	gb, _ := groupScratch.Get().(*[][]Record)
	if gb == nil || len(*gb) < len(s.shards) {
		g := make([][]Record, len(s.shards))
		gb = &g
	}
	groups := (*gb)[:len(s.shards)]
	for i := range groups {
		groups[i] = groups[i][:0]
	}
	for _, rec := range recs {
		i := ShardFor(rec.User, len(s.shards))
		groups[i] = append(groups[i], rec)
	}
	added := s.InsertGrouped(groups)
	total := 0
	for _, a := range added {
		total += a
	}
	groupScratch.Put(gb)
	return total
}

// groupScratch pools InsertBatch's per-shard partition buffers.
var groupScratch sync.Pool

// InsertGrouped is InsertBatch for callers that have already partitioned
// the batch: groups[i] holds the records routed (via ShardFor) to shard
// i, and the returned slice reports how many of each group were new
// rather than replacements. Like InsertBatch it locks every involved
// shard before inserting anything, so the whole batch becomes visible
// atomically. The caller must route correctly — records placed in the
// wrong group land in the wrong shard and become unreachable through
// the per-user read path.
func (s *Sharded) InsertGrouped(groups [][]Record) []int {
	added := make([]int, len(s.shards))
	for i, g := range groups {
		if len(g) > 0 {
			s.shards[i].mu.Lock()
		}
	}
	defer func() {
		for i, g := range groups {
			if len(g) > 0 {
				s.shards[i].mu.Unlock()
			}
		}
	}()
	for i, g := range groups {
		for _, rec := range g {
			if s.shards[i].insertLocked(rec) {
				added[i]++
			}
		}
	}
	return added
}

// Len sums the record counts of every shard.
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// MaxT returns the largest timestep across shards, -1 if empty.
func (s *Sharded) MaxT() int {
	max := -1
	for _, sh := range s.shards {
		if t := sh.MaxT(); t > max {
			max = t
		}
	}
	return max
}

// Gen sums the per-shard write generations of timestep t; monotone
// because each addend is bumped inside its shard's critical section.
func (s *Sharded) Gen(t int) uint64 {
	var g uint64
	for _, sh := range s.shards {
		g += sh.Gen(t)
	}
	return g
}

// Epoch sums the per-shard global write generations; monotone like Gen.
func (s *Sharded) Epoch() uint64 {
	var e uint64
	for _, sh := range s.shards {
		e += sh.Epoch()
	}
	return e
}

// UserRecords returns a copy of one user's records (ascending T) from
// their shard.
func (s *Sharded) UserRecords(user int) []Record {
	return s.shardOf(user).UserRecords(user)
}

// UserRecordsAfter pages one user's records (T > afterT, up to limit)
// from their shard.
func (s *Sharded) UserRecordsAfter(user, afterT, limit int) []Record {
	return s.shardOf(user).UserRecordsAfter(user, afterT, limit)
}

// Users merges every shard's user IDs and sorts them once.
func (s *Sharded) Users() []int {
	var out []int
	for _, sh := range s.shards {
		out = sh.appendUsers(out)
	}
	slices.Sort(out)
	return out
}

// NumUsers sums the shards' user counts; a user lives in one shard.
func (s *Sharded) NumUsers() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.NumUsers()
	}
	return n
}

// At collects every shard's records at timestep t, ordered by user ID.
func (s *Sharded) At(t int) []Record {
	var out []Record
	for _, sh := range s.shards {
		sh.mu.RLock()
		out = append(out, sh.atLocked(t)...)
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].User < out[j].User })
	return out
}

// rlockAll read-locks every shard in index order, the order
// InsertGrouped locks them in, so a cross-shard read sees a batch
// insert entirely or not at all.
func (s *Sharded) rlockAll() {
	for _, sh := range s.shards {
		sh.mu.RLock()
	}
}

func (s *Sharded) runlockAll() {
	for _, sh := range s.shards {
		sh.mu.RUnlock()
	}
}

// Scan read-locks every shard (in index order) before visiting any
// record, so the view is consistent across shards — a batch insert
// spanning shards can never be half-visible in a snapshot.
func (s *Sharded) Scan(fn func(Record) bool) {
	s.rlockAll()
	defer s.runlockAll()
	for _, sh := range s.shards {
		for _, rs := range sh.recs {
			for _, rec := range rs {
				if !fn(rec) {
					return
				}
			}
		}
	}
}

// ScanRange read-locks every shard like Scan, then walks timesteps in
// ascending order across all shards' indexes.
func (s *Sharded) ScanRange(t0, t1 int, fn func(Record) bool) {
	s.rlockAll()
	defer s.runlockAll()
	walkSteps(s.shards, t0, t1, func(t int) bool {
		for _, sh := range s.shards {
			for _, user := range sh.byT[t] {
				if !fn(sh.recordAtLocked(user, t)) {
					return false
				}
			}
		}
		return true
	})
}

// StepGens read-locks every shard like ScanRange and walks the same
// timesteps, summing each one's per-shard generations.
func (s *Sharded) StepGens(t0, t1 int) []StepGen {
	s.rlockAll()
	defer s.runlockAll()
	var out []StepGen
	walkSteps(s.shards, t0, t1, func(t int) bool {
		var g uint64
		for _, sh := range s.shards {
			g += sh.gen[t]
		}
		if g > 0 {
			out = append(out, StepGen{T: t, Gen: g})
		}
		return true
	})
	return out
}
