package server

import (
	"errors"
	"fmt"
	"slices"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/server/analytics"
	"github.com/pglp/panda/internal/server/storage"
)

// Record is one released location as stored by the server, re-exported
// from the storage package.
type Record = storage.Record

// HealthCode is the certification level of the health-code service,
// re-exported from the analytics package.
type HealthCode = analytics.Code

// Codes, ordered by increasing risk.
const (
	CodeGreen  = analytics.CodeGreen
	CodeYellow = analytics.CodeYellow
	CodeRed    = analytics.CodeRed
)

// DB is the released-location database: grid validation over a
// pluggable Store, plus the cached analytics.Engine over that store.
// Reads go to Store and aggregate queries to Analytics; DB itself owns
// only the rule that every stored record is a valid grid cell.
type DB struct {
	grid   *geo.Grid
	store  storage.Store
	engine *analytics.Engine
}

// NewDBOn creates a database over the grid backed by store: a
// storage.NewShardedStore for memory only, or a wal.Store for
// durability. It is the one way to build a DB.
func NewDBOn(grid *geo.Grid, store storage.Store) (*DB, error) {
	if grid == nil || store == nil {
		return nil, errors.New("server: nil grid or store")
	}
	return &DB{grid: grid, store: store, engine: analytics.New(grid, store)}, nil
}

// Store returns the underlying record store: the read path of every
// per-user and per-timestep query.
func (db *DB) Store() storage.Store { return db.store }

// Analytics returns the cached aggregate-query engine over the store.
func (db *DB) Analytics() *analytics.Engine { return db.engine }

// AnalyticsStats returns the engine's cache counters; it is
// Analytics().Stats().
func (db *DB) AnalyticsStats() analytics.Stats { return db.engine.Stats() }

// validate checks a record against the grid, snapping its point if Cell
// is unset (-1), and returns the normalized record.
func (db *DB) validate(rec Record) (Record, error) {
	if rec.T < 0 {
		return rec, fmt.Errorf("server: negative timestep %d", rec.T)
	}
	if rec.Cell == -1 {
		rec.Cell = db.grid.Snap(rec.Point)
	}
	if !db.grid.InRange(rec.Cell) {
		return rec, fmt.Errorf("server: cell %d out of range", rec.Cell)
	}
	return rec, nil
}

// ValidateBatchInPlace validates every record against the grid,
// normalizing it (snapping points where Cell is unset, -1) directly in
// recs, without storing anything. It is the front half of InsertBatch,
// exposed so the ingest path can refuse a bad batch before
// acknowledging it and hand the pooled slice it owns straight to the
// Store, without a copy. The batch is atomic with respect to
// validation — on error, some records may already be normalized, but
// the error means the batch must not be stored anyway.
func (db *DB) ValidateBatchInPlace(recs []Record) error {
	for i := range recs {
		r, err := db.validate(recs[i])
		if err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
		recs[i] = r
	}
	return nil
}

// InsertBatch validates every record first and then stores them all —
// the batch-ingest path of POST /v2/reports. The batch is atomic with
// respect to validation: if any record is invalid, nothing is stored.
// A record for an existing (user, t) pair replaces the older release —
// the re-send semantics of the contact-tracing protocol. It returns how
// many records were new and how many replaced an existing release. The
// caller's slice is left unmodified.
func (db *DB) InsertBatch(recs []Record) (added, replaced int, err error) {
	normalized := slices.Clone(recs)
	if err := db.ValidateBatchInPlace(normalized); err != nil {
		return 0, 0, err
	}
	added = db.store.InsertBatch(normalized)
	return added, len(normalized) - added, nil
}
