// Package panda is a policy-aware location-privacy toolkit for epidemic
// surveillance — an open-source implementation of the system demonstrated
// in "PANDA: Policy-aware Location Privacy for Epidemic Surveillance"
// (Cao, Takagi, Xiao, Xiong, Yoshikawa; PVLDB 12(12), 2020) and the PGLP
// (Policy Graph-based Location Privacy) mechanisms it builds on.
//
// The package exposes the full pipeline of the paper's Fig. 3:
//
//   - location policy graphs (which places must be indistinguishable from
//     which), including the paper's predefined graphs G1/Ga/Gb/Gc and
//     custom graphs;
//   - PGLP release mechanisms (graph-exponential, graph-calibrated planar
//     Laplace, and the policy-aware planar isotropic mechanism) plus the
//     Geo-Indistinguishability baseline;
//   - the surveillance apps: location monitoring (regional densities and
//     flows), the health-code service, and contact tracing with dynamic
//     policy updates;
//   - a privacy auditor (Bayesian adversary expected error).
//
// Quick start:
//
//	sys, _ := panda.NewSystem(panda.Options{Rows: 16, Cols: 16, CellSize: 1, Epsilon: 1})
//	alice, _ := sys.NewUser(1, panda.GEM, 7)
//	release, _ := alice.Report(0, 42) // timestep 0, true cell 42
//	fmt.Println(release.Point, release.Cell)
package panda

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"sync"

	"github.com/pglp/panda/internal/adversary"
	"github.com/pglp/panda/internal/core"
	"github.com/pglp/panda/internal/dp"
	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/mechanism"
	"github.com/pglp/panda/internal/policy"
	"github.com/pglp/panda/internal/policygraph"
	"github.com/pglp/panda/internal/server"
	"github.com/pglp/panda/internal/server/ingest"
	"github.com/pglp/panda/internal/server/storage"
	"github.com/pglp/panda/internal/server/storage/wal"
)

// MechanismKind selects a PGLP release mechanism family.
type MechanismKind string

// Mechanism families (see internal/mechanism for the constructions and
// privacy proofs).
const (
	GEM    MechanismKind = "gem"    // graph exponential mechanism (discrete)
	GEME   MechanismKind = "geme"   // graph exponential with Euclidean scoring
	GLM    MechanismKind = "glm"    // graph-calibrated planar Laplace
	PIM    MechanismKind = "pim"    // planar isotropic mechanism (policy-aware)
	KNorm  MechanismKind = "knorm"  // PIM without the isotropic transform
	GeoInd MechanismKind = "geoind" // geo-indistinguishability baseline
)

// Point is a released plane location.
type Point = geo.Point

// HealthCode is the certification level of the health-code service.
type HealthCode = server.HealthCode

// Health codes, ordered by increasing risk.
const (
	CodeGreen  = server.CodeGreen
	CodeYellow = server.CodeYellow
	CodeRed    = server.CodeRed
)

// Options configures a surveillance system.
type Options struct {
	// Rows, Cols, CellSize define the map grid; locations are cell IDs in
	// [0, Rows*Cols).
	Rows, Cols int
	CellSize   float64
	// Epsilon is the default per-release privacy level.
	Epsilon float64
	// PolicyGraph is the default policy; nil selects the grid-8 baseline
	// G1 (equivalent to ε-Geo-Indistinguishability by Theorem 2.1).
	PolicyGraph *PolicyGraph
	// WindowSteps and WindowEpsilon, when both positive, enforce a
	// sliding-window privacy budget per user: the ε spent on releases
	// within any WindowSteps consecutive timesteps may not exceed
	// WindowEpsilon (sequential composition over "the past two weeks").
	WindowSteps   int
	WindowEpsilon float64
	// StoreShards selects the number of independent lock shards for the
	// released-location store (keyed by user), so concurrent ingestion
	// scales with cores. 0 or 1 uses a single-lock store. With DataDir
	// set it is also the number of WAL stripes — one append log per
	// shard — and the value is pinned by the data directory's MANIFEST
	// on first use: reopening the same directory with a different
	// explicit StoreShards fails (wal.ErrStripeMismatch) rather than
	// silently mis-sharding the logs, while leaving it 0 adopts the
	// directory's existing count. See PERSISTENCE.md.
	StoreShards int
	// DataDir, when non-empty, makes the released-location store durable:
	// records are written through a striped append-only WAL in this
	// directory (created if absent) and replayed on the next NewSystem
	// with the same directory, so the database survives restarts. A
	// directory holding another layout's files (the pre-stripe single
	// log, or the LSM-style kv store of earlier builds) is refused
	// untouched. Call Close when done with the system. Empty keeps the
	// store memory-only. PERSISTENCE.md documents the on-disk format.
	DataDir string
	// FsyncEveryWrite, with DataDir set, fsyncs the log before every
	// insert returns so acknowledged reports survive power failure.
	// Concurrent writers on one stripe share fsyncs (group commit) and
	// different stripes fsync in parallel, but the per-write cost is
	// still the device flush latency (see PERSISTENCE.md for measured
	// numbers). Unset, appends are flushed to the OS per write and
	// fsynced on compaction and Close — they survive a process crash
	// but not a power cut.
	FsyncEveryWrite bool
	// AsyncIngest enables the early-acknowledgement mode of the HTTP
	// API's POST /v2/reports: async batches are validated, queued and
	// acknowledged with 202 before reaching the store; background
	// workers drain the queue (see ARCHITECTURE.md). A full queue
	// answers 429 with a retry hint. Close drains the queue before
	// closing the store, so graceful shutdown preserves every
	// acknowledged record.
	AsyncIngest bool
	// IngestWorkers is the number of background drain workers; 0 uses
	// GOMAXPROCS. Only meaningful with AsyncIngest.
	IngestWorkers int
	// IngestQueueDepth bounds the ingest queue in records (the
	// backpressure threshold); 0 uses the ingest package default
	// (65536). Only meaningful with AsyncIngest.
	IngestQueueDepth int
}

// System is the server side of PANDA: the policy configuration module, the
// released-location database, and the surveillance apps. It also keeps
// the release mechanisms its users share (see policyFor).
type System struct {
	grid      *geo.Grid
	mgr       *policy.Manager
	db        *server.DB
	srv       *server.Server
	store     *wal.Store // nil unless Options.DataDir was set
	winSteps  int
	winBudget float64

	mechMu sync.Mutex
	mechs  map[MechanismKind]sharedMechanism // guarded by mechMu
}

// sharedMechanism is the mechanism of one kind built for the policy
// {eps, graph}; every user holding that policy releases through it.
type sharedMechanism struct {
	graph *policygraph.Graph
	eps   float64
	mech  mechanism.Mechanism
}

// policyFor returns a user's current policy and the mechanism of kind
// for it. The system keeps one mechanism per kind, built for the graph
// the manager hands out, and builds a new one only when a user arrives
// with another graph or ε: after a mark, the first report of each kind
// builds the mechanism of the new graph and later reports reuse it. The
// policy is read under the lock, so the stored graph only moves forward.
func (s *System) policyFor(user int, kind MechanismKind) (policy.UserPolicy, mechanism.Mechanism, error) {
	s.mechMu.Lock()
	defer s.mechMu.Unlock()
	up := s.mgr.Get(user)
	if sm, ok := s.mechs[kind]; ok && sm.graph == up.Graph && sm.eps == up.Epsilon {
		return up, sm.mech, nil
	}
	m, err := mechanism.New(mechanism.Kind(kind), s.grid, up.Graph, up.Epsilon)
	if err != nil {
		return policy.UserPolicy{}, nil, err
	}
	s.mechs[kind] = sharedMechanism{graph: up.Graph, eps: up.Epsilon, mech: m}
	return up, m, nil
}

// NewSystem creates a surveillance system.
func NewSystem(o Options) (*System, error) {
	grid, err := geo.NewGrid(o.Rows, o.Cols, o.CellSize)
	if err != nil {
		return nil, err
	}
	g := policy.Baseline(grid)
	if o.PolicyGraph != nil {
		g = o.PolicyGraph.g
	}
	mgr, err := policy.NewManager(grid, g, o.Epsilon)
	if err != nil {
		return nil, err
	}
	if (o.WindowSteps > 0) != (o.WindowEpsilon > 0) {
		return nil, fmt.Errorf("panda: WindowSteps and WindowEpsilon must be set together")
	}
	var (
		records storage.Store
		store   *wal.Store
	)
	if o.DataDir == "" {
		records = storage.NewShardedStore(o.StoreShards)
	} else {
		sync := wal.SyncBuffered
		if o.FsyncEveryWrite {
			sync = wal.SyncAlways
		}
		store, err = wal.Open(o.DataDir, wal.Options{Shards: o.StoreShards, Sync: sync})
		if err != nil {
			return nil, fmt.Errorf("panda: opening data dir: %w", err)
		}
		records = store
	}
	db, err := server.NewDBOn(grid, records)
	if err != nil {
		if store != nil {
			store.Close()
		}
		return nil, err
	}
	srv, err := server.NewServerOpts(db, mgr, server.Options{
		AsyncIngest:      o.AsyncIngest,
		IngestWorkers:    o.IngestWorkers,
		IngestQueueDepth: o.IngestQueueDepth,
	})
	if err != nil {
		if store != nil {
			store.Close()
		}
		return nil, err
	}
	return &System{
		grid: grid, mgr: mgr, db: db, srv: srv, store: store,
		winSteps: o.WindowSteps, winBudget: o.WindowEpsilon,
		mechs: make(map[MechanismKind]sharedMechanism),
	}, nil
}

// Close shuts the system down in dependency order: the async ingest
// queue (Options.AsyncIngest) is drained first — every acknowledged
// batch is applied — and then the persistent store (Options.DataDir),
// if any, is flushed and closed. ctx bounds the drain only: if it
// expires first, the queued remainder is dropped and ctx's error is
// returned, but the store is still closed. Pass context.Background()
// to wait for a full drain. It is a no-op for memory-only systems
// without async ingest, and a second Close returns the first one's
// store error. The system must not be used afterwards.
func (s *System) Close(ctx context.Context) error {
	drainErr := s.srv.DrainIngest(ctx)
	if s.store == nil {
		return drainErr
	}
	if err := s.store.Close(); err != nil && drainErr == nil {
		return err
	}
	return drainErr
}

// IngestStats returns the async ingestion queue's counters and true,
// or a zero value and false when the system runs without AsyncIngest.
func (s *System) IngestStats() (ingest.Stats, bool) {
	q := s.srv.Ingest()
	if q == nil {
		return ingest.Stats{}, false
	}
	return q.Stats(), true
}

// StoreStats returns the durable store's counters (live records,
// stripes, compactions, a torn tail dropped at open, the last
// compaction failure) and true, or a zero value and false when the
// system is memory-only (no Options.DataDir). It stays readable after
// Close.
func (s *System) StoreStats() (wal.Stats, bool) {
	if s.store == nil {
		return wal.Stats{}, false
	}
	return s.store.Stats(), true
}

// Err returns the durable store's first append failure (disk full, an
// I/O error), or nil while every write reached the log and always for
// a memory-only system. The failure is sticky: once it is non-nil, the
// system keeps serving memory but stored reports are no longer durable,
// so a server must stop acknowledging writes.
func (s *System) Err() error {
	if s.store == nil {
		return nil
	}
	return s.store.Err()
}

// NumCells returns the number of locations on the map.
func (s *System) NumCells() int { return s.grid.NumCells() }

// CellCenter returns the plane coordinates of a cell's center.
func (s *System) CellCenter(cell int) Point { return s.grid.Center(cell) }

// SnapToCell maps a plane point to its containing cell.
func (s *System) SnapToCell(p Point) int { return s.grid.Snap(p) }

// Handler returns the HTTP API of the server, the typed /v2 surface
// (batch reporting, cursor pagination, inline policy renegotiation —
// see API.md); mount it with http.ListenAndServe.
func (s *System) Handler() http.Handler { return s.srv.Handler() }

// MarkInfected publishes infected (disclosable) locations; every user's
// policy is updated to the contact-tracing variant Gc and the policy
// version bumps, signalling clients to re-send history. Returns the IDs
// of every known user, ascending, or nil when no cell was new.
func (s *System) MarkInfected(cells []int) []int {
	if !s.mgr.MarkInfected(cells) {
		return nil
	}
	return s.mgr.Users()
}

// InfectedCells returns a copy of the accumulated disclosable locations,
// ascending.
func (s *System) InfectedCells() []int { return append([]int{}, s.mgr.InfectedCells()...) }

// DensityAt returns released-location counts per coarse region at
// timestep t — the location-monitoring aggregate — or nil when a block
// side is below one cell.
func (s *System) DensityAt(t, blockRows, blockCols int) []int {
	return s.db.Analytics().DensityAt(t, blockRows, blockCols)
}

// MovementMatrix returns region-to-region flows between two timesteps:
// flows[from][to] counts the users in region `from` at t1 and region
// `to` at t2. It returns nil when a block side is below one cell.
func (s *System) MovementMatrix(t1, t2, blockRows, blockCols int) [][]int {
	return s.db.Analytics().MovementMatrix(t1, t2, blockRows, blockCols)
}

// HealthCodeFor certifies a user from their released locations within
// the last `window` timesteps anchored at `now` (window ≤ 0 = all
// history; now < 0 = the latest timestep in the database). Anchoring at
// an explicit clock — not the user's own latest record — means a user
// who stopped reporting ages out of the window instead of keeping an
// eternally fresh certificate.
func (s *System) HealthCodeFor(user, window, now int) HealthCode {
	return s.db.Analytics().HealthCodeFor(user, s.mgr.InfectedCells(), window, now)
}

// PolicyVersion returns a user's current policy version.
func (s *System) PolicyVersion(user int) int { return s.mgr.Version(user) }

// DensitySeries returns per-region counts for each timestep in [t0, t1].
// A range of more than 10,000 timesteps (analytics.MaxSeriesSpan) is an
// error, like an inverted one and a block side below one cell.
func (s *System) DensitySeries(t0, t1, blockRows, blockCols int) ([][]int, error) {
	return s.db.Analytics().DensitySeries(t0, t1, blockRows, blockCols)
}

// ExposureSeries returns, per timestep in [t0, t1], how many users
// reported a location in an infected place — the incidence proxy computed
// on released data only. A range of more than 10,000 timesteps
// (analytics.MaxSeriesSpan) is an error, like an inverted one.
func (s *System) ExposureSeries(t0, t1 int) ([]int, error) {
	return s.db.Analytics().InfectedExposureSeries(t0, t1, s.mgr.InfectedCells())
}

// HealthCodeCensus tallies the code HealthCodeFor gives every known
// user against the same clock `now` (negative = latest timestep). It
// is cached until the next write, since any write can add a user and
// so move the green count. A recompute rescans only the timesteps of
// the window written since they were last counted, and a first one
// scans the whole window: O(records in window + users) plus one index
// lookup per timestep of the window, capped at the number of stored
// timesteps.
func (s *System) HealthCodeCensus(window, now int) map[HealthCode]int {
	return s.db.Analytics().CodeCensus(s.mgr.InfectedCells(), window, now)
}

// Records returns a user's stored releases in time order.
func (s *System) Records(user int) []server.Record { return s.db.Store().UserRecords(user) }

// Release is one released location.
type Release struct {
	Point Point
	Cell  int // snapped cell
	T     int
}

// User is the client side: it releases perturbed locations into the
// system through the mechanism of its current policy, which it shares
// with every user of the same mechanism kind on that policy.
type User struct {
	sys     *System
	id      int
	kind    MechanismKind
	mech    mechanism.Mechanism // shared, see System.policyFor
	eps     float64             // the policy's ε, charged to the window budget
	ver     int
	rand    *rand.Rand
	rngSeed uint64
	window  *dp.WindowAccountant // nil when no window budget configured
}

// NewUser registers a user with the system under the given mechanism
// family and RNG seed, bound to the user's current policy.
func (s *System) NewUser(id int, kind MechanismKind, seed uint64) (*User, error) {
	u := &User{sys: s, id: id, kind: kind, rngSeed: seed}
	if err := u.refreshPolicy(); err != nil {
		return nil, err
	}
	if s.winSteps > 0 {
		w, err := dp.NewWindowAccountant(s.winSteps, s.winBudget)
		if err != nil {
			return nil, err
		}
		u.window = w
	}
	u.rand = dp.Derive(seed, uint64(id)+1)
	return u, nil
}

func (u *User) refreshPolicy() error {
	up, m, err := u.sys.policyFor(u.id, u.kind)
	if err != nil {
		return err
	}
	u.mech, u.eps, u.ver = m, up.Epsilon, up.Version
	return nil
}

// Report releases the user's true cell at timestep t under their current
// policy and stores the result in the system's database. If the policy
// changed since the last report (e.g. an infection update), the user
// first moves to the new policy's mechanism, which the system builds
// once for all users of the kind. It is a batch of one.
func (u *User) Report(t, trueCell int) (Release, error) {
	rels, err := u.ReportBatch(t, []int{trueCell})
	if err != nil {
		return Release{}, err
	}
	return rels[0], nil
}

// releaseBatch perturbs a run of true cells under the user's current
// policy (refreshing it once up front, charging the window budget for
// the whole batch at once) without storing anything — the shared front
// half of ReportBatch and Release.
func (u *User) releaseBatch(fromT int, cells []int) ([]Release, error) {
	// Reject bad timesteps and cells before any budget is spent: the
	// window accountant's charges are not refundable, so nothing may
	// fail between the Spend and the batch insert.
	if fromT < 0 {
		return nil, fmt.Errorf("panda: negative timestep %d", fromT)
	}
	if len(cells) > 0 && fromT > math.MaxInt-(len(cells)-1) {
		return nil, fmt.Errorf("panda: %d steps from timestep %d pass math.MaxInt", len(cells), fromT)
	}
	for _, c := range cells {
		if c < 0 || c >= u.sys.grid.NumCells() {
			return nil, fmt.Errorf("panda: cell %d out of range", c)
		}
	}
	if u.sys.mgr.Version(u.id) != u.ver {
		if err := u.refreshPolicy(); err != nil {
			return nil, err
		}
	}
	if u.window != nil {
		if err := u.window.Spend(fromT, len(cells), u.eps); err != nil {
			return nil, fmt.Errorf("panda: user %d: %w", u.id, err)
		}
	}
	out := make([]Release, 0, len(cells))
	for i, c := range cells {
		p, err := u.mech.Release(u.rand, c)
		if err != nil {
			return nil, err
		}
		out = append(out, Release{Point: p, Cell: u.sys.grid.Snap(p), T: fromT + i})
	}
	return out, nil
}

// Release perturbs the user's true cell at timestep t under their
// current policy without storing the result — for clients that ship
// releases to a remote server over the /v2 API (sync or async) instead
// of the in-process database. Policy refresh and window budgeting
// behave exactly like Report.
func (u *User) Release(t, trueCell int) (Release, error) {
	rels, err := u.releaseBatch(t, []int{trueCell})
	if err != nil {
		return Release{}, err
	}
	return rels[0], nil
}

// ReportBatch releases a run of true cells (one release per step,
// starting at fromT) under the user's current policy and stores them all
// in one batch insert — the whole-history re-send of the contact-tracing
// protocol in a single storage round trip. The policy is refreshed once
// up front; window budgeting, when configured, charges every step of the
// batch or, if any window would overflow, none of them.
func (u *User) ReportBatch(fromT int, cells []int) ([]Release, error) {
	out, err := u.releaseBatch(fromT, cells)
	if err != nil {
		return nil, err
	}
	recs := make([]server.Record, 0, len(out))
	for _, rel := range out {
		recs = append(recs, server.Record{
			User: u.id, T: rel.T, Point: rel.Point, Cell: rel.Cell, PolicyVersion: u.ver,
		})
	}
	if _, _, err := u.sys.db.InsertBatch(recs); err != nil {
		return nil, err
	}
	return out, nil
}

// ReportHistory re-sends a window of true cells, as the contact-tracing
// protocol requires after a policy update. It is ReportBatch under the
// legacy name.
func (u *User) ReportHistory(fromT int, cells []int) ([]Release, error) {
	return u.ReportBatch(fromT, cells)
}

// PolicyVersion returns the policy version the user's mechanism is bound to.
func (u *User) PolicyVersion() int { return u.ver }

// AuditPrivacy runs the Bayesian inference attack of Shokri et al. against
// the user's current mechanism with a uniform prior and returns the
// adversary's expected error in plane units (higher = more private).
func (u *User) AuditPrivacy(rounds int) (float64, error) {
	adv, err := adversary.NewBayesian(u.sys.grid, nil)
	if err != nil {
		return 0, err
	}
	rep, err := adv.ExpectedError(u.mech, adversary.EstimatorMedoid, rounds, dp.NewRand(u.rngSeed^0xa0d17))
	if err != nil {
		return 0, err
	}
	return rep.MeanError, nil
}

// PolicyGraph is a public handle on a location policy graph.
type PolicyGraph struct {
	g *policygraph.Graph
}

// NumEdges returns the number of indistinguishability constraints.
func (p *PolicyGraph) NumEdges() int { return p.g.NumEdges() }

// IsolatedCells returns the locations the policy allows to disclose exactly.
func (p *PolicyGraph) IsolatedCells() []int { return p.g.IsolatedNodes() }

// BaselinePolicy returns G1: every cell indistinguishable from its eight
// grid neighbors (implies ε-Geo-Indistinguishability, Theorem 2.1).
func BaselinePolicy(o Options) (*PolicyGraph, error) {
	grid, err := geo.NewGrid(o.Rows, o.Cols, o.CellSize)
	if err != nil {
		return nil, err
	}
	return &PolicyGraph{g: policy.Baseline(grid)}, nil
}

// MonitoringPolicy returns Ga: indistinguishability inside blockSize×
// blockSize coarse areas, areas mutually distinguishable.
func MonitoringPolicy(o Options, blockSize int) (*PolicyGraph, error) {
	grid, err := geo.NewGrid(o.Rows, o.Cols, o.CellSize)
	if err != nil {
		return nil, err
	}
	if blockSize <= 0 {
		return nil, fmt.Errorf("panda: block size must be positive, got %d", blockSize)
	}
	return &PolicyGraph{g: policy.ForMonitoring(grid, blockSize, blockSize)}, nil
}

// ContactTracingPolicy returns Gc: the base policy with the given infected
// locations made disclosable.
func ContactTracingPolicy(base *PolicyGraph, infected []int) *PolicyGraph {
	return &PolicyGraph{g: policy.ForContactTracing(base.g, infected)}
}

// VerifyMechanism audits a mechanism against a policy: it probes the
// analytic likelihood ratio on every policy edge and reports whether
// {ε,G}-location privacy held on all probes, together with the largest
// observed ratio normalised by e^ε (≤ 1 means compliant). This is the
// executable form of the paper's Definition 2.4.
func VerifyMechanism(o Options, pg *PolicyGraph, eps float64, kind MechanismKind, probesPerEdge int, seed uint64) (bool, float64, error) {
	grid, err := geo.NewGrid(o.Rows, o.Cols, o.CellSize)
	if err != nil {
		return false, 0, err
	}
	pol, err := core.NewPolicy(eps, pg.g)
	if err != nil {
		return false, 0, err
	}
	m, err := mechanism.New(mechanism.Kind(kind), grid, pg.g, eps)
	if err != nil {
		return false, 0, err
	}
	rep := core.VerifyPGLP(m, pol, grid, probesPerEdge, dp.NewRand(seed))
	return rep.Satisfied, rep.MaxNormalizedRatio, nil
}

// CustomPolicy builds a policy graph from an explicit edge list over
// n = Rows*Cols cells.
func CustomPolicy(o Options, edges [][2]int) (*PolicyGraph, error) {
	grid, err := geo.NewGrid(o.Rows, o.Cols, o.CellSize)
	if err != nil {
		return nil, err
	}
	g := policygraph.New(grid.NumCells())
	for _, e := range edges {
		if e[0] < 0 || e[0] >= g.NumNodes() || e[1] < 0 || e[1] >= g.NumNodes() || e[0] == e[1] {
			return nil, fmt.Errorf("panda: invalid policy edge %v", e)
		}
		g.AddEdge(e[0], e[1])
	}
	return &PolicyGraph{g: g}, nil
}
