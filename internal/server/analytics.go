package server

import "github.com/pglp/panda/internal/server/analytics"

// The aggregate queries live in the analytics package (internal/server/
// analytics), where they are served from epoch-versioned caches over the
// store's timestep index. The DB methods below are thin compatibility
// shims so embedded callers (the examples, the panda facade) keep their
// one-object view of the server.

// DensitySeries returns, for each timestep in [t0, t1], the released-
// location counts per region — the time dimension of the location-
// monitoring app ("people's movement between different cities along with
// the incidence rate in each city"). Each timestep is cached
// individually by the engine.
func (db *DB) DensitySeries(t0, t1, blockRows, blockCols int) ([][]int, error) {
	return db.engine.DensitySeries(t0, t1, blockRows, blockCols)
}

// InfectedExposureSeries returns, per timestep in [t0, t1], how many users
// reported a location in an infected cell — the incidence proxy the health
// authority watches on released data only.
func (db *DB) InfectedExposureSeries(t0, t1 int, infected []int) ([]int, error) {
	return db.engine.InfectedExposureSeries(t0, t1, infected)
}

// TopRegions returns the k busiest regions at timestep t, as (region,
// count) pairs in descending count (ties by region index).
func (db *DB) TopRegions(t, blockRows, blockCols, k int) [][2]int {
	return db.engine.TopRegions(t, blockRows, blockCols, k)
}

// AnalyticsStats returns the engine's cache counters — cumulative
// hits/misses plus the live entry count per cache. The scenario harness
// reads it before and after its query phase to score cache behavior
// under realistic spatial skew.
func (db *DB) AnalyticsStats() analytics.Stats {
	return db.engine.Stats()
}

// CodeCensus certifies every known user and tallies the health codes —
// the population-level view of the health-code service. The window is
// anchored at `now` (negative = the database's latest timestep) so every
// user is certified against the same clock. A recompute scans the
// window once: O(records in window + users) plus O(min(window width,
// stored timesteps)) index lookups, however large T grows. The tally is
// cached against the global write epoch, because any write can add a
// user and so move the green count.
func (db *DB) CodeCensus(infected []int, window, now int) map[HealthCode]int {
	return db.engine.CodeCensus(infected, window, now)
}
