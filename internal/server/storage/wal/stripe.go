package wal

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"github.com/pglp/panda/internal/server/storage"
)

// stripe is one of the store's N independent logs: the records of the
// users routed to memory shard i (storage.ShardFor) append to stripe
// i's segments, under stripe i's mutex alone. Two batches touching
// different stripes therefore append — and fsync — fully in parallel;
// the old single-log store serialized them on one mutex.
//
// Locking, in acquisition order (never acquire leftwards):
//
//	fsyncMu  →  mu  →  (memory shard locks, inside storage.Sharded)
//
// mu guards the append path and orders log appends identically to the
// memory inserts of this stripe's shard — replay correctness needs the
// log to be a linearization of the shard's writes. fsyncMu serializes
// fsync with itself and with segment rotation, and is deliberately NOT
// held during appends: that is the group commit. Writers append+flush
// under mu, release it, then call syncTo; whichever writer reaches
// fsyncMu first issues one fsync covering every append flushed so far,
// and the writers behind it observe synced >= their position and
// return without touching the disk.
type stripe struct {
	idx   int
	dir   string
	store *Store

	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	seq      uint64
	minSeq   uint64 // lowest segment still on disk
	garbage  int    // superseded records still occupying this stripe's log
	err      error  // first append/sync failure, sticky
	closed   bool
	appends  uint64 // append calls flushed to the OS, monotone
	tornTail bool   // Open truncated a torn final record in this stripe
	buf      []byte // append scratch, under mu

	compactions uint64 // completed snapshot rewrites, under mu
	compactErr  error  // latest background-compaction failure, under mu

	fsyncMu sync.Mutex
	synced  uint64 // appends covered by the last fsync; under fsyncMu

	compactMu sync.Mutex    // serializes compaction with itself
	kick      chan struct{} // nudges the compactor; buffered, size 1
}

// recover replays this stripe's snapshot + segments into the store's
// shared memory and opens the last segment for appending (creating
// segment 1 in a fresh stripe directory). Single-threaded: only Open
// calls it, before any writer exists.
func (st *stripe) recover() error {
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			// Leftover of a snapshot write that crashed before rename;
			// never referenced, safe to discard.
			_ = os.Remove(filepath.Join(st.dir, e.Name()))
			continue
		}
		if seq, ok := parseSegmentName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)

	mem := st.store.mem
	snapPath := filepath.Join(st.dir, snapshotName)
	if _, err := os.Stat(snapPath); err == nil {
		if _, err := replayFile(snapPath, func(rec storage.Record) { mem.Insert(rec) }); err != nil {
			if err == errTorn {
				return fmt.Errorf("%w: snapshot %s", ErrCorrupt, snapPath)
			}
			return fmt.Errorf("wal: replaying snapshot: %w", err)
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("wal: %w", err)
	}

	replayInsert := func(rec storage.Record) {
		if !mem.Insert(rec) {
			st.garbage++ // superseded an earlier log entry
		}
	}
	for i, seq := range seqs {
		path := filepath.Join(st.dir, segmentName(seq))
		validEnd, err := replayFile(path, replayInsert)
		switch {
		case err == nil:
		case err == errTorn && i == len(seqs)-1:
			// Torn tail of a crashed append: keep everything before it,
			// truncate the rest so appends resume from a clean frame
			// boundary. A zero-length or headerless file (crash between
			// create and header write) truncates to empty and the
			// header is rewritten below.
			if err := os.Truncate(path, validEnd); err != nil {
				return fmt.Errorf("wal: truncating torn tail: %w", err)
			}
			st.tornTail = true
		case err == errTorn:
			return fmt.Errorf("%w: segment %s", ErrCorrupt, path)
		default:
			return fmt.Errorf("wal: replaying %s: %w", path, err)
		}
	}

	st.seq, st.minSeq = 1, 1
	if n := len(seqs); n > 0 {
		st.seq, st.minSeq = seqs[n-1], seqs[0]
	}
	return st.openSegmentLocked(st.seq)
}

// openSegmentLocked opens segment seq for appending, writing the file
// header if the file is new (or was truncated to empty). Callers hold
// st.mu (or are the single-threaded recovery).
//
// The header is flushed but deliberately not fsynced here: openSegment
// runs under st.mu (rotation swings appends to the new segment with
// the stripe locked), and an fsync there would stall every writer of
// the stripe on device latency. Durability does not need it. A
// headerless or empty file can only ever be the stripe's newest
// segment — rotation seals (fsyncs) the old segment before creating
// the next one — and recovery truncates a headerless newest segment to
// empty and rewrites the header. The first group-commit fsync on the
// new file covers the header along with the appends it acknowledges.
func (st *stripe) openSegmentLocked(seq uint64) error {
	path := filepath.Join(st.dir, segmentName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	if fi.Size() == 0 {
		if _, err := w.Write(fileHeader()); err != nil {
			f.Close()
			return fmt.Errorf("wal: %w", err)
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return fmt.Errorf("wal: %w", err)
		}
	}
	st.f, st.w = f, w
	return nil
}

// appendLocked frames recs into the active segment and flushes them to
// the OS. It returns the stripe's append position (the value to hand
// syncTo for a durable acknowledgement). Failures are sticky: the
// first one is kept and every later append degrades to memory-only
// (reported by Err/Sync/Close). Callers hold st.mu.
func (st *stripe) appendLocked(recs ...storage.Record) uint64 {
	if st.err != nil || st.closed {
		return st.appends
	}
	st.buf = st.buf[:0]
	for _, rec := range recs {
		st.buf = appendFrame(st.buf, rec)
	}
	if _, err := st.w.Write(st.buf); err != nil {
		st.err = fmt.Errorf("wal: append: %w", err)
		return st.appends
	}
	if err := st.w.Flush(); err != nil {
		st.err = fmt.Errorf("wal: append: %w", err)
		return st.appends
	}
	st.appends++
	return st.appends
}

// syncTo makes every append up to position n durable and returns the
// stripe's sticky error state. It is the group-commit point: if a
// concurrent caller's fsync already covered n, it returns without
// touching the disk; otherwise it issues one fsync that covers every
// append flushed so far — its own and those of the writers queued
// behind it. Rotation holds fsyncMu too, so the file being synced can
// never be swapped out (and closed) underneath an in-flight fsync.
func (st *stripe) syncTo(n uint64) error {
	st.fsyncMu.Lock()
	defer st.fsyncMu.Unlock()
	st.mu.Lock()
	err, closed := st.err, st.closed
	f, m := st.f, st.appends
	st.mu.Unlock()
	if err != nil {
		return err
	}
	if st.synced >= n {
		return nil
	}
	if closed {
		return errors.New("wal: store closed")
	}
	if serr := f.Sync(); serr != nil {
		st.mu.Lock()
		if st.err == nil {
			st.err = fmt.Errorf("wal: fsync: %w", serr)
		}
		err := st.err
		st.mu.Unlock()
		return err
	}
	st.synced = m
	return nil
}

// sync flushes this stripe's buffered appends and fsyncs them — the
// Store.Sync barrier, per stripe.
func (st *stripe) sync() error {
	st.mu.Lock()
	if st.err != nil {
		err := st.err
		st.mu.Unlock()
		return err
	}
	if st.closed {
		st.mu.Unlock()
		return errors.New("wal: store closed")
	}
	if err := st.w.Flush(); err != nil {
		st.err = fmt.Errorf("wal: flush: %w", err)
		err = st.err
		st.mu.Unlock()
		return err
	}
	n := st.appends
	st.mu.Unlock()
	return st.syncTo(n)
}

// maybeKickLocked nudges this stripe's compactor when its garbage
// crosses the (per-stripe) thresholds. Callers hold st.mu; the shard
// length read takes the memory shard's read lock, which is always
// acquired after stripe mutexes (see the lock order above).
func (st *stripe) maybeKickLocked() {
	o := st.store.opts
	if o.CompactMinGarbage <= 0 || st.garbage < o.CompactMinGarbage {
		return
	}
	total := st.garbage + st.store.mem.ShardLen(st.idx)
	if float64(st.garbage) < o.CompactGarbageFraction*float64(total) {
		return
	}
	select {
	case st.kick <- struct{}{}:
	default:
	}
}

// close seals the stripe: flush and mark closed under mu, then fsync
// and close the segment under fsyncMu alone — the same split the
// append path uses, so a slow device never holds the stripe mutex
// hostage, and stripes close in parallel. Marking closed under mu
// first means any writer arriving after the flush appends nothing;
// fsyncMu serializes the final fsync with an in-flight group commit,
// so the file cannot be closed underneath one. Returns the stripe's
// sticky error state; safe to call once (Close's closeMu guards it).
func (st *stripe) close() error {
	st.mu.Lock()
	if st.closed {
		err := st.err
		st.mu.Unlock()
		return err
	}
	st.closed = true
	if flushErr := st.w.Flush(); flushErr != nil && st.err == nil {
		st.err = fmt.Errorf("wal: flush: %w", flushErr)
	}
	f := st.f
	st.mu.Unlock()

	st.fsyncMu.Lock()
	var sealErr error
	if syncErr := f.Sync(); syncErr != nil {
		sealErr = fmt.Errorf("wal: fsync: %w", syncErr)
	}
	if closeErr := f.Close(); closeErr != nil && sealErr == nil {
		sealErr = fmt.Errorf("wal: close: %w", closeErr)
	}
	st.fsyncMu.Unlock()

	st.mu.Lock()
	if sealErr != nil && st.err == nil {
		st.err = sealErr
	}
	err := st.err
	st.mu.Unlock()
	return err
}
