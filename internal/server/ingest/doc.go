// Package ingest is the asynchronous ingestion pipeline of PANDA's
// server side: a bounded in-memory queue with background drain workers
// that batch-apply released-location records into a storage sink.
//
// It exists to decouple the client-visible acknowledgement latency of
// POST /v2/reports from the durable write path. Synchronously, a batch
// report pays the store's full insert cost — with a WAL-backed store,
// an fsync-class latency — before the client hears anything. In async
// mode the handler validates, enqueues, and answers 202 Accepted
// immediately; workers drain the queue in the background, coalescing
// many small client batches into few large store batches (amortizing
// lock acquisitions and WAL flushes). With the striped WAL behind the
// sink, the N drain workers genuinely apply in parallel: a coalesced
// batch takes only the stripe locks its users route to, batches on
// disjoint stripes proceed concurrently, and each worker's fsync
// covers its own stripes (group-committed with any same-stripe
// neighbor) instead of queueing on one global log mutex.
//
// The contract has three legs:
//
//   - Early ack ≠ durable. A 202 means "validated and queued", not
//     "applied" and certainly not "on disk". Clients that need a
//     durable acknowledgement use synchronous mode.
//   - Backpressure is explicit. The queue is bounded in records; when
//     it is full, TryEnqueue fails and the handler answers 429 with a
//     retry hint derived from the observed drain lag. Re-sending after
//     backoff is safe because the store replaces on (user, t). A batch
//     that could never fit fails with ErrTooLarge instead (413): no
//     backoff helps it.
//   - Graceful shutdown drains. Close stops admissions and waits for
//     the workers to apply everything queued, so on an orderly SIGTERM
//     every acknowledged record reaches the store (and disk, when the
//     store is durable) before the process exits.
package ingest
