// Package analytics is the cached aggregate-query engine of PANDA's
// server side: regional density grids, infected-exposure series, and
// the population health-code census, computed over released records
// only (so everything here is privacy-preserving post-processing).
//
// The Engine layers epoch-versioned caches over a storage.Store, and
// every cached aggregate is computed from ScanRange over the timestep
// index. MovementMatrix, which pairs two timesteps, reads Store.At and
// is not cached.
// Every cached aggregate remembers the store's write generation at
// compute time and is served only while that generation is still
// current. Density and exposure are per-timestep and pin Gen(t), so a
// write to timestep t invalidates exactly t's cached aggregates:
// batch-ingesting historical data evicts only the touched steps, and
// the hot dashboard window stays cached. The census counts users with
// no visit in its window as green, and a write anywhere can add a user,
// so its tally pins the global Epoch. Its work is per-timestep, though:
// an exposure entry keeps the users it counted, and a census miss
// reuses the entries of its window's steps and rescans only the steps
// written since, at a cost set by the records and stored timesteps in
// them, not by the window's width.
//
// Cache coherence relies on one ordering rule: the generation is read
// *before* the records are scanned. A write racing with the scan may or
// may not be visible in the computed aggregate, but it necessarily
// bumps the generation past the value recorded with the cache entry, so
// the next query recomputes. A cache entry can be invalidated
// spuriously, never served stale.
package analytics
