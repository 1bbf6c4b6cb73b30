package ingest

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pglp/panda/internal/server/storage"
)

// Queue capacity and apply-size defaults; see Config.
const (
	DefaultQueueDepth = 1 << 16 // 65536 pending records
	DefaultMaxApply   = 1 << 12 // 4096 records per sink call

	// maxQueuedBatches caps the total batch-channel buffer independently
	// of QueueDepth, so a generous record bound does not translate into
	// a proportionally huge channel allocation. A full channel is the
	// same backpressure signal as a full record budget: ErrFull.
	maxQueuedBatches = 1 << 16
)

// Errors reported by TryEnqueue. Handlers map ErrFull to 429 (with a
// retry hint), ErrTooLarge to 413 and ErrClosed to 503.
var (
	// ErrFull means the queue — or the enqueuing user's fairness
	// budget — is at capacity. The caller should back off for RetryAfter
	// and re-send; re-sending is idempotent because the store replaces
	// on (user, t).
	ErrFull = errors.New("ingest: queue full")
	// ErrTooLarge means the batch alone holds more records than
	// QueueDepth or MaxUserPending, so it can never be admitted and
	// retrying cannot help: the caller must split it or apply it
	// synchronously. TryEnqueue wraps it with the sizes involved; match
	// it with errors.Is. Such a refusal is not backpressure and counts
	// in neither Stats.Rejected nor Stats.Throttled.
	ErrTooLarge = errors.New("ingest: batch can never fit")
	// ErrClosed means Close has begun: the queue no longer accepts
	// batches (the server is shutting down).
	ErrClosed = errors.New("ingest: queue closed")
)

// Sink is where drained batches land: the record store (or the DB's
// store) behind the surveillance database. Records handed to the sink
// have already been validated by the enqueueing layer.
type Sink interface {
	// InsertBatch stores the records atomically with respect to
	// snapshots and returns how many were new (storage.Store's
	// contract). The sink must not retain the slice after returning:
	// the queue recycles drained batches through a pool.
	InsertBatch(recs []storage.Record) (added int)
}

// Config parameterizes a Queue. The zero value selects the defaults
// noted on each field.
type Config struct {
	// Workers is the number of background drain goroutines. <= 0 uses
	// GOMAXPROCS. When Shards is set, Workers is capped at Shards (more
	// workers than stripes would leave some idle).
	Workers int
	// QueueDepth is the maximum number of pending records (enqueued,
	// not yet applied). <= 0 uses DefaultQueueDepth. A TryEnqueue that
	// would exceed it fails with ErrFull — the backpressure signal — or
	// with ErrTooLarge when the batch alone exceeds it.
	QueueDepth int
	// MaxApply caps how many records a worker coalesces into one sink
	// call. Coalescing turns many small client batches into few large
	// store batches, amortizing lock acquisitions and WAL flushes.
	// <= 0 uses DefaultMaxApply.
	MaxApply int
	// Shards pins workers to stripe subsets: batches are routed to
	// lanes by storage.ShardFor(user, Shards) so each worker's
	// coalesced batches touch only its own stripes (one lock + one WAL
	// flush per involved stripe instead of all of them). Set it to the
	// backing store's shard/stripe count; <= 0 routes by
	// ShardFor(user, Workers), which still gives per-user FIFO order
	// but no stripe affinity.
	Shards int
	// MaxUserPending bounds how many un-applied records a single user
	// may have in the queue — the fairness budget that stops one hot
	// client from filling the whole queue and starving everyone else
	// into 429s. <= 0 disables per-user accounting.
	MaxUserPending int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Shards > 0 && c.Workers > c.Shards {
		c.Workers = c.Shards
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.MaxApply <= 0 {
		c.MaxApply = DefaultMaxApply
	}
	return c
}

// Stats is a point-in-time observation of a queue.
type Stats struct {
	Depth    int // records enqueued but not yet applied
	Capacity int // configured QueueDepth
	Workers  int // configured worker count
	UserCap  int // per-user pending budget, 0 when fairness is disabled

	Enqueued  uint64 // records accepted by TryEnqueue since New
	Drained   uint64 // records applied to the sink
	Dropped   uint64 // records discarded because the drain deadline expired
	Rejected  uint64 // records refused with ErrFull (fairness refusals included)
	Throttled uint64 // the subset of Rejected refused by the per-user budget

	// Lag is the enqueue→apply latency of the most recently applied
	// batch (its oldest coalesced record) — how far the workers run
	// behind the acknowledgements.
	Lag time.Duration
}

// batch is one enqueued unit: the records of a single TryEnqueue call,
// the user whose fairness budget they count against, and the admission
// time from which drain lag is measured.
type batch struct {
	recs []storage.Record
	user int
	at   time.Time
}

// Queue is a bounded in-memory ingestion queue with background drain
// workers — the early-acknowledgement path of POST /v2/reports. The
// handler validates and enqueues (202 Accepted); workers batch-apply
// into the Sink. Capacity is counted in records, so backpressure is
// proportional to actual work, not request count.
//
// Batches are routed to per-worker lanes by their first record's user
// (the HTTP layer only enqueues single-user batches), which buys two
// properties: a user's batches drain FIFO through a single worker, and
// with Config.Shards set each worker's coalesced batches stay within
// its own stripe subset of a sharded/striped store.
//
// The acknowledgement contract is deliberately weak: a 202 means the
// records passed validation and will be applied unless the process
// dies first. Durability (when the store is WAL-backed) happens at
// apply time, not at acknowledgement — clients that need a durable ack
// must use synchronous mode. Close drains the queue before returning,
// so a graceful shutdown turns every acknowledgement into an applied
// (and, with a durable store, persisted) record.
//
// A Queue is safe for concurrent use.
type Queue struct {
	cfg   Config
	sink  Sink
	lanes []chan batch

	pending   atomic.Int64 // records enqueued, not yet applied
	enqueued  atomic.Uint64
	drained   atomic.Uint64
	dropped   atomic.Uint64
	rejected  atomic.Uint64
	throttled atomic.Uint64
	lagNS     atomic.Int64

	// userMu guards userPending, the per-user fairness ledger. Nil map
	// when MaxUserPending is disabled.
	userMu      sync.Mutex
	userPending map[int]int

	// mu guards the closed flag against the TryEnqueue send: Close must
	// not close the lanes while a send is in flight.
	mu      sync.RWMutex
	closed  bool
	discard atomic.Bool // drain deadline expired: workers discard instead of applying
	wg      sync.WaitGroup
}

// New starts a queue draining into sink with cfg.Workers background
// workers. The queue runs until Close.
func New(sink Sink, cfg Config) (*Queue, error) {
	if sink == nil {
		return nil, errors.New("ingest: nil sink")
	}
	cfg = cfg.withDefaults()
	chCap := cfg.QueueDepth
	if chCap > maxQueuedBatches {
		chCap = maxQueuedBatches
	}
	laneCap := chCap / cfg.Workers
	if laneCap < 1 {
		laneCap = 1
	}
	q := &Queue{
		cfg:   cfg,
		sink:  sink,
		lanes: make([]chan batch, cfg.Workers),
	}
	if cfg.MaxUserPending > 0 {
		q.userPending = make(map[int]int)
	}
	for i := range q.lanes {
		q.lanes[i] = make(chan batch, laneCap)
	}
	q.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go q.worker(q.lanes[i])
	}
	return q, nil
}

// laneFor routes a user to a drain lane. With Shards set the route goes
// through the stripe placement first, so every user of stripe s lands
// on worker s mod Workers and a worker only ever touches stripes
// congruent to its index.
func (q *Queue) laneFor(user int) chan batch {
	if q.cfg.Shards > 0 {
		return q.lanes[storage.ShardFor(user, q.cfg.Shards)%q.cfg.Workers]
	}
	return q.lanes[storage.ShardFor(user, q.cfg.Workers)]
}

// userAdmit charges n records to user's fairness budget, reporting
// whether the budget allows it. No-op (always admitted) when fairness
// is disabled.
func (q *Queue) userAdmit(user, n int) bool {
	if q.userPending == nil {
		return true
	}
	q.userMu.Lock()
	defer q.userMu.Unlock()
	if q.userPending[user]+n > q.cfg.MaxUserPending {
		return false
	}
	q.userPending[user] += n
	return true
}

// userDone returns n records of user's fairness budget after they were
// applied (or discarded, or rolled back).
func (q *Queue) userDone(user, n int) {
	if q.userPending == nil {
		return
	}
	q.userMu.Lock()
	if left := q.userPending[user] - n; left > 0 {
		q.userPending[user] = left
	} else {
		delete(q.userPending, user)
	}
	q.userMu.Unlock()
}

// TryEnqueue admits recs into the queue without blocking. On success it
// returns the number of records pending *ahead of* this batch at
// admission — the backlog hint carried in the 202 response — and the
// queue takes ownership of the slice (it is recycled into the shared
// record pool after the sink applies it, so the caller must not touch
// it again; pass a storage.GetRecords slice to keep the path
// allocation-free). On error the caller keeps ownership. ErrFull means
// the queue — or the caller's per-user fairness budget — is at
// capacity (wait RetryAfter and re-send); ErrTooLarge means the batch
// exceeds one of those bounds on its own (never re-send it as is);
// ErrClosed means the queue is shutting down. Records must already be
// validated: the sink applies them unchecked. Batches are routed by
// their first record's user, so callers should enqueue single-user
// batches (the HTTP layer always does).
func (q *Queue) TryEnqueue(recs []storage.Record) (depth int, err error) {
	if len(recs) == 0 {
		return int(q.pending.Load()), nil
	}
	if len(recs) > q.cfg.QueueDepth {
		return 0, fmt.Errorf("%w: %d records exceed the queue capacity of %d",
			ErrTooLarge, len(recs), q.cfg.QueueDepth)
	}
	if q.userPending != nil && len(recs) > q.cfg.MaxUserPending {
		return 0, fmt.Errorf("%w: %d records exceed the per-user pending budget of %d",
			ErrTooLarge, len(recs), q.cfg.MaxUserPending)
	}
	user := recs[0].User
	n := int64(len(recs))
	after := q.pending.Add(n)
	if after > int64(q.cfg.QueueDepth) {
		q.pending.Add(-n)
		q.rejected.Add(uint64(n))
		return 0, ErrFull
	}
	if !q.userAdmit(user, len(recs)) {
		q.pending.Add(-n)
		q.rejected.Add(uint64(n))
		q.throttled.Add(uint64(n))
		return 0, ErrFull
	}
	q.mu.RLock()
	if q.closed {
		q.mu.RUnlock()
		q.userDone(user, len(recs))
		q.pending.Add(-n)
		return 0, ErrClosed
	}
	select {
	case q.laneFor(user) <- batch{recs: recs, user: user, at: time.Now()}:
	default:
		// Record budget left but the lane's batch channel is full (many
		// tiny batches): same backpressure signal, never a blocking send.
		q.mu.RUnlock()
		q.userDone(user, len(recs))
		q.pending.Add(-n)
		q.rejected.Add(uint64(n))
		return 0, ErrFull
	}
	q.mu.RUnlock()
	q.enqueued.Add(uint64(n))
	return int(after - n), nil
}

// owner tracks one coalesced batch's fairness charge through apply.
type owner struct {
	user int
	n    int
}

// worker drains its lane, coalescing queued work up to MaxApply records
// per sink call so a burst of small client batches becomes a few large
// store batches. Because a user always routes to the same lane, a
// user's batches apply in FIFO order; with stripe pinning the whole
// coalesced batch stays within this worker's stripe subset. Applied
// batch slices are recycled into the shared record pool.
func (q *Queue) worker(lane chan batch) {
	defer q.wg.Done()
	var owners []owner
	for b := range lane {
		recs, oldest := b.recs, b.at
		owners = append(owners[:0], owner{b.user, len(b.recs)})
	coalesce:
		for len(recs) < q.cfg.MaxApply {
			select {
			case nb, ok := <-lane:
				if !ok {
					break coalesce
				}
				recs = append(recs, nb.recs...)
				owners = append(owners, owner{nb.user, len(nb.recs)})
				if nb.at.Before(oldest) {
					oldest = nb.at
				}
				// nb's records were copied into the coalesced batch; its
				// slice is dead and can be recycled immediately.
				storage.PutRecords(nb.recs)
			default:
				break coalesce
			}
		}
		if q.discard.Load() {
			q.dropped.Add(uint64(len(recs)))
		} else {
			q.sink.InsertBatch(recs)
			q.drained.Add(uint64(len(recs)))
			q.lagNS.Store(int64(time.Since(oldest)))
		}
		for _, o := range owners {
			q.userDone(o.user, o.n)
		}
		q.pending.Add(int64(-len(recs)))
		storage.PutRecords(recs)
	}
}

// discardGrace bounds how long a deadline-expired Close waits for the
// workers to notice discard mode before abandoning them. Discarding is
// fast, so this only matters when a worker is wedged inside the sink.
const discardGrace = 100 * time.Millisecond

// Close stops admissions and waits for the workers to drain every
// queued batch into the sink. If ctx expires first, the remaining
// records are discarded (counted in Stats.Dropped) and ctx's error is
// returned — an acknowledged record is then lost, which is exactly the
// async-mode contract a forced shutdown buys. A worker blocked inside
// Sink.InsertBatch cannot be interrupted: Close still returns shortly
// after the deadline (the deadline is the contract), abandoning the
// worker, whose in-flight batch may be applied — and counters may
// tick — after Close has returned. Close is idempotent; concurrent
// calls all wait for the drain.
func (q *Queue) Close(ctx context.Context) error {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		for _, lane := range q.lanes {
			close(lane)
		}
	}
	q.mu.Unlock()

	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Deadline passed (possibly before the drain got any chance to
		// run — e.g. the HTTP drain consumed the whole grace). Give the
		// workers one bounded beat to finish naturally first: an empty
		// or nearly drained queue must not be reported as a cut-short
		// drain.
		tm := time.NewTimer(discardGrace)
		select {
		case <-done:
			tm.Stop()
			return nil
		case <-tm.C:
		}
		// Still not drained: tell the workers to discard what remains
		// so they exit promptly, give them a moment to notice, but
		// never wait unboundedly — a sink that has wedged a worker
		// would otherwise turn the deadline into a hang.
		droppedBefore := q.dropped.Load()
		q.discard.Store(true)
		tm.Reset(discardGrace)
		defer tm.Stop()
		select {
		case <-done:
			// The drain finished during the grace beat. If nothing was
			// actually discarded — the last worker was just slow inside
			// the sink — the shutdown lost nothing and must not be
			// reported as cut short.
			if q.dropped.Load() == droppedBefore {
				return nil
			}
		case <-tm.C:
		}
		return ctx.Err()
	}
}

// Stats returns a point-in-time observation of the queue. Counters are
// read individually, so a snapshot taken during heavy traffic may be
// off by in-flight batches; quiescent snapshots are exact.
func (q *Queue) Stats() Stats {
	userCap := q.cfg.MaxUserPending
	if userCap < 0 {
		userCap = 0
	}
	return Stats{
		Depth:     int(q.pending.Load()),
		Capacity:  q.cfg.QueueDepth,
		Workers:   q.cfg.Workers,
		UserCap:   userCap,
		Enqueued:  q.enqueued.Load(),
		Drained:   q.drained.Load(),
		Dropped:   q.dropped.Load(),
		Rejected:  q.rejected.Load(),
		Throttled: q.throttled.Load(),
		Lag:       time.Duration(q.lagNS.Load()),
	}
}

// Retry-after hint bounds: the hint tracks observed drain lag but never
// tells a client to hammer (below the floor) or give up (above the
// ceiling).
const (
	minRetryAfter     = 25 * time.Millisecond
	defaultRetryAfter = 100 * time.Millisecond
	maxRetryAfter     = 2 * time.Second
)

// RetryAfter is the backpressure hint carried in a 429 response: how
// long a rejected client should wait before re-sending. It tracks the
// workers' observed drain lag — if the queue runs a second behind,
// retrying in 25ms is pointless — clamped to [25ms, 2s].
func (q *Queue) RetryAfter() time.Duration {
	lag := time.Duration(q.lagNS.Load())
	switch {
	case lag <= 0:
		return defaultRetryAfter
	case lag < minRetryAfter:
		return minRetryAfter
	case lag > maxRetryAfter:
		return maxRetryAfter
	}
	return lag
}
