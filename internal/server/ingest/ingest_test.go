package ingest

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pglp/panda/internal/server/storage"
)

// recsOf builds a batch of n records for one user starting at timestep
// fromT.
func recsOf(user, fromT, n int) []storage.Record {
	recs := make([]storage.Record, n)
	for i := range recs {
		recs[i] = storage.Record{User: user, T: fromT + i, Cell: i % 16}
	}
	return recs
}

// blockingSink applies into an inner store but can be paused, so tests
// can hold the queue full deterministically.
type blockingSink struct {
	inner storage.Store
	gate  chan struct{} // non-nil: every InsertBatch waits for one token
	calls atomic.Int64
	sizes sync.Map // call index -> batch size
}

func (b *blockingSink) InsertBatch(recs []storage.Record) int {
	if b.gate != nil {
		<-b.gate
	}
	n := b.calls.Add(1)
	b.sizes.Store(n, len(recs))
	return b.inner.InsertBatch(recs)
}

func newBlockingSink(gated bool) *blockingSink {
	s := &blockingSink{inner: storage.NewShardedStore(1)}
	if gated {
		s.gate = make(chan struct{})
	}
	return s
}

func TestDrainAppliesEverything(t *testing.T) {
	sink := newBlockingSink(false)
	q, err := New(sink, Config{Workers: 4, QueueDepth: 1000})
	if err != nil {
		t.Fatal(err)
	}
	const users, per = 20, 30
	for u := 0; u < users; u++ {
		if _, err := q.TryEnqueue(recsOf(u, 0, per)); err != nil {
			t.Fatalf("user %d: %v", u, err)
		}
	}
	if err := q.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := sink.inner.Len(); got != users*per {
		t.Fatalf("store has %d records after drain, want %d", got, users*per)
	}
	st := q.Stats()
	if st.Depth != 0 || st.Enqueued != users*per || st.Drained != users*per || st.Dropped != 0 {
		t.Fatalf("stats after drain: %+v", st)
	}
	if st.Lag <= 0 {
		t.Fatalf("lag never measured: %+v", st)
	}
}

func TestBackpressureFullQueue(t *testing.T) {
	sink := newBlockingSink(true) // workers stall on the first batch
	q, err := New(sink, Config{Workers: 1, QueueDepth: 10, MaxApply: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Fill the queue to capacity. Worker may have pulled a batch and be
	// blocked in the sink; pending still counts it until applied, so
	// admission control is unaffected.
	if _, err := q.TryEnqueue(recsOf(1, 0, 10)); err != nil {
		t.Fatalf("fill: %v", err)
	}
	if _, err := q.TryEnqueue(recsOf(2, 0, 1)); !errors.Is(err, ErrFull) {
		t.Fatalf("overflow enqueue: err=%v, want ErrFull", err)
	}
	if st := q.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
	if d := q.RetryAfter(); d <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", d)
	}
	// Unblock the sink: every gated call gets a token.
	close(sink.gate)
	if err := q.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := sink.inner.Len(); got != 10 {
		t.Fatalf("store has %d records, want the 10 admitted", got)
	}
	// Capacity freed after the drain: a fresh queue over the same sink
	// accepts again (the rejected batch's re-send path).
	q2, err := New(sink, Config{Workers: 1, QueueDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q2.TryEnqueue(recsOf(2, 0, 1)); err != nil {
		t.Fatalf("re-send after drain: %v", err)
	}
	if err := q2.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestEnqueueTooLarge: a batch larger than the whole queue, or than one
// user's pending budget, can never be admitted. It is refused with
// ErrTooLarge, never the retriable ErrFull, and since that is not
// backpressure it leaves the depth and the refusal counters alone.
func TestEnqueueTooLarge(t *testing.T) {
	q, err := New(newBlockingSink(false), Config{Workers: 1, QueueDepth: 10, MaxUserPending: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close(context.Background())
	for _, n := range []int{11, 5} { // over QueueDepth, over MaxUserPending
		if _, err := q.TryEnqueue(recsOf(1, 0, n)); !errors.Is(err, ErrTooLarge) {
			t.Errorf("batch of %d: err=%v, want ErrTooLarge", n, err)
		}
	}
	if st := q.Stats(); st.Depth != 0 || st.Rejected != 0 || st.Throttled != 0 {
		t.Errorf("stats after never-fitting batches = %+v, want depth, rejected and throttled 0", st)
	}
}

func TestEnqueueAfterCloseFails(t *testing.T) {
	q, err := New(newBlockingSink(false), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := q.TryEnqueue(recsOf(1, 0, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after close: err=%v, want ErrClosed", err)
	}
	// Idempotent close.
	if err := q.Close(context.Background()); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestCloseDeadlineDropsRemainder(t *testing.T) {
	sink := newBlockingSink(true)
	q, err := New(sink, Config{Workers: 1, QueueDepth: 100, MaxApply: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 50 single-record batches; the worker stalls inside the sink on
	// the first one for the whole Close.
	for i := 0; i < 50; i++ {
		if _, err := q.TryEnqueue(recsOf(i, 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Close under an already-expired deadline: after its bounded drain
	// attempt it flips to discard mode and abandons the wedged worker.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := q.Close(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close: err=%v, want Canceled", err)
	}
	// Unwedge the worker; it applies its in-flight record and discards
	// the remainder.
	close(sink.gate)
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := q.Stats()
		if st.Drained+st.Dropped == st.Enqueued {
			if st.Dropped == 0 {
				t.Fatalf("no records counted dropped after forced shutdown: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("accounting never settled: %+v", q.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseExpiredDeadlineDrainedQueue: an expired deadline must not
// turn an already-drained (or instantly drainable) queue into a
// cut-short drain report — Close still returns nil when the workers
// finish within its bounded first attempt.
func TestCloseExpiredDeadlineDrainedQueue(t *testing.T) {
	sink := newBlockingSink(false) // applies instantly
	q, err := New(sink, Config{Workers: 2, QueueDepth: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.TryEnqueue(recsOf(1, 0, 10)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := q.Close(ctx); err != nil {
		t.Fatalf("Close on a drainable queue: %v, want nil", err)
	}
	st := q.Stats()
	if st.Dropped != 0 || st.Drained != 10 {
		t.Fatalf("stats = %+v, want 10 drained, 0 dropped", st)
	}
}

// TestCloseDeadlineAbandonsWedgedWorker: a worker blocked inside the
// sink cannot be interrupted, but Close must still honor its deadline
// (panda-server's -shutdown-grace depends on it) rather than hang; the
// abandoned worker finishes whenever the sink unblocks.
func TestCloseDeadlineAbandonsWedgedWorker(t *testing.T) {
	sink := newBlockingSink(true)
	q, err := New(sink, Config{Workers: 1, QueueDepth: 100, MaxApply: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := q.TryEnqueue(recsOf(i, 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	err = q.Close(ctx) // worker is wedged in the sink the whole time
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Close: err=%v, want Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Close took %v despite an expired deadline", elapsed)
	}
	// Unwedge the abandoned worker; it applies its in-flight batch and
	// discards the rest.
	close(sink.gate)
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := q.Stats()
		if st.Drained+st.Dropped == st.Enqueued {
			if st.Dropped == 0 {
				t.Fatalf("nothing dropped after abandoned drain: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned worker never settled: %+v", q.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestConcurrentProducers(t *testing.T) {
	sink := newBlockingSink(false)
	q, err := New(sink, Config{Workers: 8, QueueDepth: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	const producers, batches, per = 16, 50, 10
	var wg sync.WaitGroup
	var rejected atomic.Int64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(user int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				for {
					_, err := q.TryEnqueue(recsOf(user, b*per, per))
					if err == nil {
						break
					}
					if !errors.Is(err, ErrFull) {
						t.Errorf("user %d: %v", user, err)
						return
					}
					rejected.Add(1)
					time.Sleep(time.Millisecond)
				}
			}
		}(p)
	}
	wg.Wait()
	if err := q.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := sink.inner.Len(); got != producers*batches*per {
		t.Fatalf("store has %d records, want %d (%d enqueues were rejected and retried)",
			got, producers*batches*per, rejected.Load())
	}
}

func TestCoalescing(t *testing.T) {
	sink := newBlockingSink(true)
	q, err := New(sink, Config{Workers: 1, QueueDepth: 1000, MaxApply: 64})
	if err != nil {
		t.Fatal(err)
	}
	// 32 single-record batches pile up while the worker is stalled on
	// the first one; once released, the worker should coalesce the
	// backlog into far fewer sink calls.
	for i := 0; i < 32; i++ {
		if _, err := q.TryEnqueue(recsOf(i, 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	close(sink.gate)
	if err := q.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := sink.inner.Len(); got != 32 {
		t.Fatalf("store has %d records, want 32", got)
	}
	calls := sink.calls.Load()
	if calls >= 32 {
		t.Fatalf("sink saw %d calls for 32 queued single-record batches; coalescing never happened", calls)
	}
}

func TestMaxApplyBoundsBatches(t *testing.T) {
	sink := newBlockingSink(true)
	const maxApply = 8
	q, err := New(sink, Config{Workers: 1, QueueDepth: 1000, MaxApply: maxApply})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := q.TryEnqueue(recsOf(i, 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	close(sink.gate)
	if err := q.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	sink.sizes.Range(func(_, v any) bool {
		// A single client batch larger than MaxApply is applied whole;
		// coalesced single-record batches must respect the cap.
		if size := v.(int); size > maxApply {
			t.Errorf("sink call of %d records exceeds MaxApply %d", size, maxApply)
		}
		return true
	})
}

func TestDepthHint(t *testing.T) {
	sink := newBlockingSink(true)
	q, err := New(sink, Config{Workers: 1, QueueDepth: 100, MaxApply: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The hint is the backlog *ahead of* the batch: nothing before the
	// first, the first's 10 records before the second.
	depth, err := q.TryEnqueue(recsOf(1, 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	if depth != 0 {
		t.Fatalf("depth hint %d after first enqueue, want 0 (nothing ahead)", depth)
	}
	depth, err = q.TryEnqueue(recsOf(2, 0, 5))
	if err != nil {
		t.Fatal(err)
	}
	if depth != 10 {
		t.Fatalf("depth hint %d after second enqueue, want 10 ahead", depth)
	}
	close(sink.gate)
	if err := q.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyEnqueueIsNoop(t *testing.T) {
	q, err := New(newBlockingSink(false), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.TryEnqueue(nil); err != nil {
		t.Fatalf("empty enqueue: %v", err)
	}
	if st := q.Stats(); st.Enqueued != 0 {
		t.Fatalf("empty enqueue counted: %+v", st)
	}
	if err := q.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestNilSink(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("New(nil) succeeded, want error")
	}
}
