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

// DB is the released-location database: grid-aware validation over a
// pluggable Store, with the surveillance analytics delegated to a
// cached analytics.Engine.
type DB struct {
	grid   *geo.Grid
	store  Store
	engine *analytics.Engine
}

// NewDB creates an empty location database over the grid, backed by the
// single-lock in-memory store.
func NewDB(grid *geo.Grid) *DB {
	db, _ := NewDBOn(grid, NewMemStore())
	return db
}

// NewShardedDB creates a database backed by a store with `shards`
// independent locks keyed by user, so ingestion scales with cores.
func NewShardedDB(grid *geo.Grid, shards int) *DB {
	if shards <= 1 {
		return NewDB(grid)
	}
	db, _ := NewDBOn(grid, NewShardedStore(shards))
	return db
}

// NewDBOn creates a database over the grid backed by an explicit Store —
// the seam where alternative (persistent, remote) backends plug in.
func NewDBOn(grid *geo.Grid, store Store) (*DB, error) {
	if grid == nil || store == nil {
		return nil, errors.New("server: nil grid or store")
	}
	return &DB{grid: grid, store: store, engine: analytics.New(grid, store)}, nil
}

// Grid returns the database's grid.
func (db *DB) Grid() *geo.Grid { return db.grid }

// Store returns the underlying record store.
func (db *DB) Store() Store { return db.store }

// Analytics returns the cached aggregate-query engine over the store.
func (db *DB) Analytics() *analytics.Engine { return db.engine }

// Len returns the total number of stored records.
func (db *DB) Len() int { return db.store.Len() }

// MaxT returns the latest timestep of any stored record, -1 if empty.
func (db *DB) MaxT() int { return db.store.MaxT() }

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

// Insert stores a record, snapping its point if Cell is unset (-1). A
// record for an existing (user, t) pair replaces the older release — the
// re-send semantics of the contact-tracing protocol.
func (db *DB) Insert(rec Record) error {
	rec, err := db.validate(rec)
	if err != nil {
		return err
	}
	db.store.Insert(rec)
	return nil
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
// It returns how many records were new and how many replaced an
// existing (user, t) release. The caller's slice is left unmodified.
func (db *DB) InsertBatch(recs []Record) (added, replaced int, err error) {
	normalized := slices.Clone(recs)
	if err := db.ValidateBatchInPlace(normalized); err != nil {
		return 0, 0, err
	}
	added = db.store.InsertBatch(normalized)
	return added, len(normalized) - added, nil
}

// UserRecords returns a copy of one user's records in time order.
func (db *DB) UserRecords(user int) []Record { return db.store.UserRecords(user) }

// UserRecordsAfter returns up to limit of the user's records with
// T > afterT — the pagination primitive behind GET /v2/records.
func (db *DB) UserRecordsAfter(user, afterT, limit int) []Record {
	return db.store.UserRecordsAfter(user, afterT, limit)
}

// Users returns the IDs of users with at least one record.
func (db *DB) Users() []int { return db.store.Users() }

// At returns every user's record at timestep t (users without one are
// skipped), ordered by user ID. Served from the store's timestep index.
func (db *DB) At(t int) []Record { return db.store.At(t) }

// ScanRange calls fn for every record with t0 <= T <= t1 in ascending T,
// stopping early if fn returns false — the streaming form of the
// monitoring read path.
func (db *DB) ScanRange(t0, t1 int, fn func(Record) bool) {
	db.store.ScanRange(t0, t1, fn)
}

// DensityAt returns the number of released locations per blockRows×blockCols
// region at timestep t — the location-monitoring aggregate ("people's
// movement between different cities or provinces in a coarse-grained
// level"). Served from the analytics engine's per-timestep cache.
func (db *DB) DensityAt(t, blockRows, blockCols int) []int {
	return db.engine.DensityAt(t, blockRows, blockCols)
}

// MovementMatrix returns flows[from][to]: how many users moved from region
// `from` at t1 to region `to` at t2 (users must have records at both).
func (db *DB) MovementMatrix(t1, t2, blockRows, blockCols int) [][]int {
	nr := db.grid.NumRegions(blockRows, blockCols)
	flows := make([][]int, nr)
	for i := range flows {
		flows[i] = make([]int, nr)
	}
	at1 := db.At(t1)
	at2map := make(map[int]Record)
	for _, r := range db.At(t2) {
		at2map[r.User] = r
	}
	for _, r1 := range at1 {
		r2, ok := at2map[r1.User]
		if !ok {
			continue
		}
		from := db.grid.RegionOf(r1.Cell, blockRows, blockCols)
		to := db.grid.RegionOf(r2.Cell, blockRows, blockCols)
		flows[from][to]++
	}
	return flows
}

// HealthCode is the certification level of the health-code service,
// re-exported from the analytics package.
type HealthCode = analytics.Code

// Codes, ordered by increasing risk.
const (
	CodeGreen  = analytics.CodeGreen
	CodeYellow = analytics.CodeYellow
	CodeRed    = analytics.CodeRed
)

// HealthCodeFor certifies a user from their released locations; see
// analytics.Engine.HealthCodeFor for the window semantics.
func (db *DB) HealthCodeFor(user int, infected []int, window, now int) HealthCode {
	return db.engine.HealthCodeFor(user, infected, window, now)
}
