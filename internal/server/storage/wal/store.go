package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"github.com/pglp/panda/internal/server/storage"
)

// Sync selects when appends reach stable storage.
type Sync int

const (
	// SyncBuffered flushes every append to the OS (it survives a process
	// crash) but fsyncs only on rotation and Close — the throughput
	// mode; a power failure can lose the most recent appends.
	SyncBuffered Sync = iota
	// SyncAlways fsyncs before Insert/InsertBatch returns — the
	// durability mode; an acknowledged write survives power failure.
	// Concurrent writers on the same stripe share fsyncs (group
	// commit), and writers on different stripes fsync in parallel.
	SyncAlways
)

// String names the policy ("buffered" or "always") for logs and flags.
func (s Sync) String() string {
	if s == SyncAlways {
		return "always"
	}
	return "buffered"
}

// Options configures a WAL-backed store. The zero value is usable: one
// stripe over a single memory shard, buffered syncs, default compaction
// thresholds.
type Options struct {
	// Shards selects the number of storage shards, which is also the
	// number of log stripes: the store keeps one independently locked
	// append log per memory shard, routed by storage.ShardFor, so
	// concurrent writes to different shards append (and fsync) in
	// parallel. The count is pinned by the directory's MANIFEST on
	// first Open; reopening with a different explicit value fails with
	// ErrStripeMismatch rather than silently mis-sharding (see
	// PERSISTENCE.md to restripe). 0 means "no opinion": adopt an
	// existing directory's MANIFEST count, or lay out a fresh
	// directory with a single stripe. Negative and 1 both mean an
	// explicit single stripe.
	Shards int
	// Sync is the append durability policy.
	Sync Sync
	// CompactMinGarbage is the number of superseded (user, t) records
	// that must accumulate in one stripe's log before that stripe's
	// background compactor considers rewriting it. 0 selects the
	// default (8192); negative disables automatic compaction (Compact
	// may still be called). The threshold is per stripe: each stripe
	// compacts on its own garbage, independently of the others.
	CompactMinGarbage int
	// CompactGarbageFraction is the garbage/(garbage+live) ratio —
	// measured within one stripe — that, together with
	// CompactMinGarbage, triggers compaction. 0 selects the default
	// (0.5).
	CompactGarbageFraction float64
}

const (
	defaultCompactMinGarbage      = 8192
	defaultCompactGarbageFraction = 0.5

	snapshotName = "snapshot.dat"
)

// Stats is a point-in-time observation of a store's log state,
// aggregated across stripes.
type Stats struct {
	LiveRecords int    // records in memory (== storage.Store.Len)
	Garbage     int    // superseded records still occupying log bytes, all stripes
	Stripes     int    // number of log stripes (== memory shards, MANIFEST-pinned)
	ActiveSeq   uint64 // highest active segment sequence across stripes
	Compactions uint64 // completed per-stripe snapshot rewrites since Open
	TornTail    bool   // whether Open truncated a torn final record in any stripe
	CompactErr  error  // first stripe's unrecovered background-compaction failure, nil once all succeed
}

// Store is a durable storage.Store: N append-only write-ahead log
// stripes — one per memory shard — over a sharded in-memory store.
// Writes append to their stripe's log before touching memory; reads
// are served entirely from memory. Each stripe has its own append
// mutex, segment sequence, snapshot, and background compactor, so the
// durable write path parallelizes across shards instead of serializing
// on one log mutex. Close flushes and stops the compactors; a Store
// must be Closed before its directory is opened again.
//
// Crash-safety contract, in terms of what survives where:
//
//   - After Insert/InsertBatch returns under SyncAlways, the records
//     are on stable storage (each involved stripe was fsynced) and a
//     crash or power cut replays them.
//   - Under SyncBuffered they are in the OS page cache: a process
//     crash keeps them, a power cut may drop a suffix of them.
//   - A batch spanning stripes is appended stripe-by-stripe; a crash
//     in the middle durably keeps some stripes' records and not
//     others. Replay reports whatever records are individually intact
//     (partial-batch semantics) — batch atomicity is a property of the
//     in-memory view, never of crash recovery. See PERSISTENCE.md.
//   - After Sync returns nil, everything appended so far is durable.
//   - After Close returns nil, everything is durable and the directory
//     may be reopened.
//
// The storage.Store interface has no error returns, so append failures
// (disk full, I/O errors) cannot surface per-write: each stripe
// records its first such error, keeps serving memory, and reports it
// from Err, Sync and Close. Callers that need hard durability
// guarantees check Err (or Sync) after writing.
type Store struct {
	dir     string
	opts    Options
	mem     *storage.Sharded
	stripes []*stripe

	closeMu  sync.Mutex
	closed   bool
	closeErr error

	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

// Open creates or recovers a WAL store in dir. Existing state is
// replayed into memory stripe by stripe: each stripe's snapshot first
// (if present), then its segments in sequence order. A torn final
// record in a stripe's last segment is truncated away; damage anywhere
// else returns ErrCorrupt. A directory whose MANIFEST pins a different
// stripe count than opts.Shards is refused with ErrStripeMismatch, and
// a directory without a MANIFEST that holds another layout's files is
// refused too (see checkFresh); nothing is modified in either case.
func Open(dir string, opts Options) (*Store, error) {
	if opts.CompactMinGarbage == 0 {
		opts.CompactMinGarbage = defaultCompactMinGarbage
	}
	if opts.CompactGarbageFraction == 0 {
		opts.CompactGarbageFraction = defaultCompactGarbageFraction
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}

	manifestStripes, hasManifest, err := Manifest(dir)
	if err != nil {
		return nil, err
	}
	stripes := opts.Shards
	if stripes < 1 {
		stripes = 1
		if opts.Shards == 0 && hasManifest {
			// "No opinion": adopt the directory's pinned count, so
			// embedders that never set Shards reopen any dir cleanly.
			stripes = manifestStripes
		}
	}
	switch {
	case hasManifest && manifestStripes != stripes:
		return nil, fmt.Errorf("%w: data dir %s was laid out with %d stripes, got Shards=%d; reopen with Shards=%d (or 0 to adopt) or restripe offline (PERSISTENCE.md)",
			ErrStripeMismatch, dir, manifestStripes, opts.Shards, manifestStripes)
	case !hasManifest:
		if err := checkFresh(dir); err != nil {
			return nil, err
		}
		if err := writeManifest(dir, stripes); err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
	}

	s := &Store{
		dir:     dir,
		opts:    opts,
		mem:     storage.NewSharded(stripes),
		stripes: make([]*stripe, stripes),
		done:    make(chan struct{}),
	}
	for i := range s.stripes {
		st := &stripe{
			idx:   i,
			dir:   filepath.Join(dir, stripeDirName(i)),
			store: s,
			kick:  make(chan struct{}, 1),
		}
		if err := st.recover(); err != nil {
			// Release the segments the earlier stripes already opened.
			for _, prev := range s.stripes {
				if prev != nil && prev.f != nil {
					prev.f.Close()
				}
			}
			return nil, err
		}
		s.stripes[i] = st
	}
	if opts.CompactMinGarbage > 0 {
		for _, st := range s.stripes {
			s.wg.Add(1)
			go s.compactLoop(st)
		}
	}
	return s, nil
}

// stripeFor routes a user to their stripe — the same placement the
// memory shards use, by construction.
func (s *Store) stripeFor(user int) *stripe {
	return s.stripes[storage.ShardFor(user, len(s.stripes))]
}

// NumShards returns the stripe count (= the memory shard count): the
// partition fan-out a drain layer should pin its workers to so a
// coalesced batch stays within each worker's stripe subset.
func (s *Store) NumShards() int { return len(s.stripes) }

// Insert appends the record to its stripe's log, then stores it in
// memory. Under SyncAlways it returns only after the stripe is fsynced
// (sharing the fsync with concurrent writers on the same stripe). It
// implements storage.Store.
func (s *Store) Insert(rec storage.Record) bool {
	st := s.stripeFor(rec.User)
	st.mu.Lock()
	n := st.appendLocked(rec)
	added := s.mem.Insert(rec)
	if !added {
		st.garbage++
	}
	st.maybeKickLocked()
	st.mu.Unlock()
	if s.opts.Sync == SyncAlways {
		st.syncTo(n)
	}
	return added
}

// InsertBatch appends the batch to every involved stripe's log (one
// flush per stripe), then stores it in memory atomically: all involved
// stripe mutexes are held, in index order, across the appends and the
// grouped memory insert, so a concurrent Scan sees the whole batch or
// none of it. Under SyncAlways it fsyncs the involved stripes in
// parallel before returning; batches confined to different stripes
// never contend at all. Note that crash recovery is per-record, not
// per-batch: see the partial-batch semantics on Store.
func (s *Store) InsertBatch(recs []storage.Record) int {
	if len(recs) == 0 {
		return 0
	}
	n := len(s.stripes)
	groups := make([][]storage.Record, n)
	if n == 1 {
		groups[0] = recs
	} else {
		for _, rec := range recs {
			i := storage.ShardFor(rec.User, n)
			groups[i] = append(groups[i], rec)
		}
	}
	positions := make([]uint64, n)
	for i, g := range groups {
		if len(g) > 0 {
			st := s.stripes[i]
			st.mu.Lock()
			positions[i] = st.appendLocked(g...)
		}
	}
	addedPer := s.mem.InsertGrouped(groups)
	added := 0
	for i, g := range groups {
		if len(g) > 0 {
			st := s.stripes[i]
			st.garbage += len(g) - addedPer[i]
			added += addedPer[i]
			st.maybeKickLocked()
			st.mu.Unlock()
		}
	}
	if s.opts.Sync == SyncAlways {
		s.syncStripes(groups, positions)
	}
	return added
}

// syncStripes makes the batch durable: one group-commit fsync per
// involved stripe, issued in parallel when the batch spans more than
// one stripe.
func (s *Store) syncStripes(groups [][]storage.Record, positions []uint64) {
	first := -1
	count := 0
	for i, g := range groups {
		if len(g) > 0 {
			if first < 0 {
				first = i
			}
			count++
		}
	}
	if count == 1 {
		s.stripes[first].syncTo(positions[first])
		return
	}
	var wg sync.WaitGroup
	for i, g := range groups {
		if len(g) == 0 {
			continue
		}
		wg.Add(1)
		go func(st *stripe, n uint64) {
			defer wg.Done()
			st.syncTo(n)
		}(s.stripes[i], positions[i])
	}
	wg.Wait()
}

// Len reports the stored record count; reads are served from the
// hydrated in-memory store, never the logs.
func (s *Store) Len() int { return s.mem.Len() }

// MaxT reports the largest stored timestep (-1 if empty), from memory.
func (s *Store) MaxT() int { return s.mem.MaxT() }

// UserRecords returns one user's records in ascending T, from memory.
func (s *Store) UserRecords(user int) []storage.Record { return s.mem.UserRecords(user) }

// UserRecordsAfter returns up to limit records with T > afterT, from
// memory.
func (s *Store) UserRecordsAfter(user, afterT, limit int) []storage.Record {
	return s.mem.UserRecordsAfter(user, afterT, limit)
}

// Users returns the IDs with at least one record, ascending, from
// memory.
func (s *Store) Users() []int { return s.mem.Users() }

// NumUsers returns the number of users with a record, from memory.
func (s *Store) NumUsers() int { return s.mem.NumUsers() }

// At returns every user's record at timestep t, from memory.
func (s *Store) At(t int) []storage.Record { return s.mem.At(t) }

// Scan visits every record in a consistent point-in-time view, from
// memory. The view is consistent across stripes: a concurrent
// cross-stripe InsertBatch is never half-visible, because the memory
// apply locks every involved shard before inserting anything.
func (s *Store) Scan(fn func(storage.Record) bool) { s.mem.Scan(fn) }

// ScanRange visits records with t0 <= T <= t1 in ascending T, from
// memory, with the same cross-stripe consistency as Scan.
func (s *Store) ScanRange(t0, t1 int, fn func(storage.Record) bool) {
	s.mem.ScanRange(t0, t1, fn)
}

// Gen returns timestep t's write generation, from memory. Write
// generations are process state, not log state: a restart replays
// records (rebuilding nonzero generations) but does not reproduce the
// previous process's counts — which is fine, because the caches they
// version are per-process too.
func (s *Store) Gen(t int) uint64 { return s.mem.Gen(t) }

// Epoch returns the global write generation, from memory; see Gen for
// the restart semantics.
func (s *Store) Epoch() uint64 { return s.mem.Epoch() }

// StepGens lists the stored timesteps of [t0, t1] with their write
// generations, from memory in one pass; see Gen for the restart
// semantics.
func (s *Store) StepGens(t0, t1 int) []storage.StepGen { return s.mem.StepGens(t0, t1) }

// Err returns the first append or sync failure of any stripe, if any.
// Once non-nil that stripe's log has stopped growing and only memory
// is being updated — durability is lost for its shard of users, and
// callers that require durability should fail-stop (cmd/panda-server
// shuts down when this trips). Background-compaction failures are
// reported separately (Stats.CompactErr): they leave the append path
// intact.
func (s *Store) Err() error {
	for _, st := range s.stripes {
		st.mu.Lock()
		err := st.err
		st.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Sync flushes buffered appends on every stripe to stable storage (a
// barrier for SyncBuffered mode: after a nil return, everything
// appended before the call survives power failure) and reports the
// first sticky append failure.
func (s *Store) Sync() error {
	var first error
	for _, st := range s.stripes {
		if err := st.sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats returns a point-in-time observation of the log, aggregated
// across stripes. Fields from different stripes are sampled one stripe
// at a time (no global pause), so counters may be skewed by concurrent
// writes — fine for monitoring, not a consistency point.
func (s *Store) Stats() Stats {
	out := Stats{
		LiveRecords: s.mem.Len(),
		Stripes:     len(s.stripes),
	}
	for _, st := range s.stripes {
		st.mu.Lock()
		out.Garbage += st.garbage
		if st.seq > out.ActiveSeq {
			out.ActiveSeq = st.seq
		}
		out.Compactions += st.compactions
		out.TornTail = out.TornTail || st.tornTail
		if out.CompactErr == nil {
			out.CompactErr = st.compactErr
		}
		st.mu.Unlock()
	}
	return out
}

// Close stops the compactors, then flushes, fsyncs and closes every
// stripe's active segment. After a nil return the full store contents
// are durable and the directory may be reopened. The store must not be
// used afterwards; a second Close returns the first one's result.
func (s *Store) Close() error {
	s.closeOnce.Do(func() { close(s.done) })
	s.wg.Wait()

	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed {
		return s.closeErr
	}
	s.closed = true
	// Seal every stripe in parallel: each close costs an fsync, and on
	// a slow device N serial fsyncs would turn shutdown into N device
	// round-trips. The stripes are independent logs — the same reason
	// appends parallelize is the reason closes do.
	errs := make([]error, len(s.stripes))
	var wg sync.WaitGroup
	for i, st := range s.stripes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = st.close()
		}()
	}
	wg.Wait()
	var firstErr, firstCompactErr error
	for i, st := range s.stripes {
		if errs[i] != nil && firstErr == nil {
			firstErr = errs[i]
		}
		st.mu.Lock()
		if st.compactErr != nil && firstCompactErr == nil {
			firstCompactErr = st.compactErr
		}
		st.mu.Unlock()
	}
	s.closeErr = firstErr
	if s.closeErr == nil {
		// Surface an unrecovered compaction failure at shutdown so it
		// is not lost entirely; the data itself is safe (that stripe's
		// log kept growing).
		s.closeErr = firstCompactErr
	}
	return s.closeErr
}

// compactLoop runs one stripe's compactions when kicked, until Close.
// A failed compaction is recorded as the stripe's compactErr (visible
// in Stats and, if never recovered, from Close) but does not stop the
// append path: the log keeps growing and the next garbage accumulation
// retries.
func (s *Store) compactLoop(st *stripe) {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case <-st.kick:
		}
		if err := s.compactStripe(st); err != nil {
			st.mu.Lock()
			st.compactErr = err
			st.mu.Unlock()
		}
	}
}

// Compact rewrites every stripe's log as snapshot+tail (see
// compactStripe) and returns the first failure. Stripes compact
// independently; a failure in one does not stop the others.
func (s *Store) Compact() error {
	var first error
	for _, st := range s.stripes {
		if err := s.compactStripe(st); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// compactStripe rewrites one stripe's log as snapshot+tail: it rotates
// the stripe's appends onto a fresh segment, writes every live record
// of the stripe's memory shard to a new snapshot (atomically replacing
// the old one), and deletes the now-redundant older segments. Appends
// on this stripe are blocked only for the rotation, not for the
// snapshot write; other stripes are never touched.
//
// Correctness of the rotate-then-scan order: the snapshot is a scan of
// the stripe's memory shard taken *after* rotation, so it equals
// (shard state at rotation) plus some prefix of the new segment's
// appends — the shard and the stripe hold exactly the same keys
// because both route by storage.ShardFor. Replay applies the snapshot
// first and then the new segment in full, and since the final state of
// a (user, t) key is decided by its last log entry, replaying that
// prefix over the snapshot is idempotent. The scan holds only the
// shard's read lock, so a snapshot of one stripe runs concurrently
// with appends to every stripe — including its own.
//
// Old segments are deleted strictly oldest-first, so a crash mid-
// deletion leaves a contiguous *newest* suffix of them, and that is
// the only leftover shape replay can see. A suffix is harmless: a key
// whose last pre-rotation write sits in a surviving segment replays to
// that (correct) value, and a key whose last write sits only in
// already-deleted older segments has no surviving entry at all, so the
// snapshot's value stands. Deleting newest-first would break exactly
// this — a surviving *older* segment could overwrite the snapshot's
// newer value on replay.
func (s *Store) compactStripe(st *stripe) error {
	st.compactMu.Lock()
	defer st.compactMu.Unlock()

	// Rotate: seal the active segment and swing appends to the next
	// one. fsyncMu is held across the rotation so a group-commit fsync
	// in flight on the old file completes first, and so the rotation's
	// own fsync can mark everything flushed so far as synced.
	st.fsyncMu.Lock()
	st.mu.Lock()
	unlock := func() { st.mu.Unlock(); st.fsyncMu.Unlock() }
	if st.closed {
		unlock()
		return errors.New("wal: store closed")
	}
	if st.err != nil {
		err := st.err
		unlock()
		return err
	}
	if err := st.w.Flush(); err != nil {
		st.err = fmt.Errorf("wal: flush: %w", err)
		err = st.err
		unlock()
		return err
	}
	//panda:allow fsynclock — rotation seals the old segment: fsyncMu is already held, writers queue behind the swap by design, and the fsync doubles as their group commit
	if err := st.f.Sync(); err != nil {
		st.err = fmt.Errorf("wal: fsync: %w", err)
		err = st.err
		unlock()
		return err
	}
	if err := st.f.Close(); err != nil {
		st.err = fmt.Errorf("wal: close: %w", err)
		err = st.err
		unlock()
		return err
	}
	oldSeq := st.seq
	minSeq := st.minSeq
	st.seq++
	if err := st.openSegmentLocked(st.seq); err != nil {
		st.err = err
		unlock()
		return err
	}
	// Everything the snapshot will absorb — including all garbage so
	// far — predates the new segment; and everything appended so far
	// just hit stable storage.
	st.garbage = 0
	st.synced = st.appends
	unlock()

	// Snapshot: scan the stripe's memory shard (consistent view,
	// concurrent with new appends) into a temp file, then atomically
	// replace.
	err := storage.WriteFileAtomic(st.dir, snapshotName, func(w io.Writer) error {
		if _, err := w.Write(fileHeader()); err != nil {
			return err
		}
		var frame []byte
		var writeErr error
		s.mem.ScanShard(st.idx, func(rec storage.Record) bool {
			frame = appendFrame(frame[:0], rec)
			_, writeErr = w.Write(frame)
			return writeErr == nil
		})
		return writeErr
	})
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}

	// Drop segments the snapshot superseded — oldest first, so a crash
	// partway through can only leave the newest suffix (see above).
	for seq := minSeq; seq <= oldSeq; seq++ {
		path := filepath.Join(st.dir, segmentName(seq))
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("wal: compact: %w", err)
		}
	}

	st.mu.Lock()
	st.minSeq = oldSeq + 1
	st.compactions++
	st.compactErr = nil
	st.mu.Unlock()
	return nil
}
