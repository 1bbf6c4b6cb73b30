package scenario

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/mechanism"
	"github.com/pglp/panda/internal/policygraph"
	"github.com/pglp/panda/internal/server"
	"github.com/pglp/panda/internal/server/wire"
)

// Default knobs of RunConfig (applied by normalize).
const (
	defaultBatch   = 25
	defaultQueries = 200
	defaultSample  = 8
	defaultTopK    = 3
	defaultWorkers = 64

	// densityBlocks is the region block size of the scored density
	// queries (a 32x32 grid folds into 8x8 regions).
	densityBlocks = 4

	// drainPoll and drainStall bound the async drain wait: poll every
	// drainPoll, give up if the queue depth makes no progress for
	// drainStall.
	drainPoll  = 10 * time.Millisecond
	drainStall = 30 * time.Second
)

// RunConfig parameterizes a scenario run against a live server. The
// zero value plus BaseURL is usable; normalize fills defaults.
type RunConfig struct {
	// BaseURL is the server (or cluster router) to drive.
	BaseURL string
	// HTTP is the transport; nil uses http.DefaultClient.
	HTTP *http.Client
	// Batch is releases per report request (default 25).
	Batch int
	// Queries is the analytics repeat-phase request count (default 200).
	Queries int
	// Sample is how many users the adversary replays (default 8).
	Sample int
	// TopK is the forward filter's belief set size (default 3).
	TopK int
	// Async reports with early acknowledgement (mode=async) and drains
	// the ingest queue before the analytics phase.
	Async bool
	// Binary reports in the binary frame format.
	Binary bool
	// Cluster records the node count behind BaseURL (0 = single node);
	// informational, echoed into the report.
	Cluster int
	// Workers bounds concurrent per-user request goroutines
	// (default min(users, 64)).
	Workers int
	// Kind is the mechanism family users release under (default
	// mechanism.KindGLM — continuous noise, so exact disclosures happen
	// only for isolated infected cells).
	Kind mechanism.Kind
	// Out receives progress lines; nil is silent.
	Out io.Writer
	// OnPhase, if set, is called as each phase starts ("warmup",
	// "renegotiate", "ingest", "drain", "analytics", "score"). Test
	// hook: the warmup-regression test uses it to window its transport
	// instrumentation.
	OnPhase func(phase string)
}

func (cfg RunConfig) normalize(users int) RunConfig {
	if cfg.HTTP == nil {
		cfg.HTTP = http.DefaultClient
	}
	if cfg.Batch < 1 {
		cfg.Batch = defaultBatch
	}
	if cfg.Queries < 1 {
		cfg.Queries = defaultQueries
	}
	if cfg.Sample < 1 {
		cfg.Sample = defaultSample
	}
	if cfg.Sample > users {
		cfg.Sample = users
	}
	if cfg.TopK < 1 {
		cfg.TopK = defaultTopK
	}
	if cfg.Workers < 1 {
		cfg.Workers = defaultWorkers
	}
	if cfg.Workers > users {
		cfg.Workers = users
	}
	if cfg.Kind == "" {
		cfg.Kind = mechanism.KindGLM
	}
	return cfg
}

// runner is the in-flight state of one scenario run.
type runner struct {
	plan   *Plan
	cfg    RunConfig
	client *server.Client

	// Policy state, keyed by version. All users share the manager's
	// default policy, so versions are global; mmu guards the maps.
	mmu    sync.Mutex
	mechs  map[int]mechanism.Mechanism
	graphs map[int]*policygraph.Graph
	eps    float64

	version []int        // per-user current policy version
	relRNG  []*rand.Rand // per-user release noise stream (seed, 2u+1)
	traceH  []uint64     // per-user FNV-1a digest of (t, cell) words
	relH    []uint64     // per-user FNV-1a digest of released coordinates

	// relDensity holds the released per-region density at each scored
	// timestep, captured during the analytics phase for utility scoring.
	relMu      sync.Mutex
	relDensity map[int][]int

	ingestLat, renegLat, queryLat latencies
	timing                        Timing
}

// Run drives the plan through the /v2 client against the server at
// cfg.BaseURL and scores the result. The returned report's Score and
// Config are deterministic under the plan's seed (see Report).
func Run(ctx context.Context, plan *Plan, cfg RunConfig) (*Report, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalize(plan.Users)
	r := &runner{
		plan:       plan,
		cfg:        cfg,
		client:     server.NewClient(cfg.BaseURL, cfg.HTTP),
		mechs:      map[int]mechanism.Mechanism{},
		graphs:     map[int]*policygraph.Graph{},
		version:    make([]int, plan.Users),
		relRNG:     make([]*rand.Rand, plan.Users),
		traceH:     make([]uint64, plan.Users),
		relH:       make([]uint64, plan.Users),
		relDensity: map[int][]int{},
	}
	for u := range r.relRNG {
		r.relRNG[u] = rand.New(rand.NewPCG(plan.Seed, uint64(u)<<1|1))
		r.traceH[u] = fnvOffset
		r.relH[u] = fnvOffset
	}

	start := time.Now()
	if err := r.warmup(ctx); err != nil {
		return nil, err
	}
	ingestStart := time.Now()
	for wi, w := range plan.Waves {
		if err := r.runWave(ctx, wi, w); err != nil {
			return nil, err
		}
	}
	if cfg.Async {
		r.phase("drain")
		drainStart := time.Now()
		if err := r.awaitDrain(ctx); err != nil {
			return nil, err
		}
		r.timing.DrainMS = msSince(drainStart)
	}
	releases := plan.Users * plan.Steps
	r.timing.ReleasesPerSec = float64(releases) / time.Since(ingestStart).Seconds()

	cache, err := r.analyticsPhase(ctx)
	if err != nil {
		return nil, err
	}

	r.phase("score")
	score, err := r.score(ctx)
	if err != nil {
		return nil, err
	}
	score.Cache = cache

	r.timing.IngestRequests = r.ingestLat.count()
	r.timing.IngestP50MS, r.timing.IngestP90MS, r.timing.IngestP99MS = r.ingestLat.percentiles()
	_, _, r.timing.RenegP99MS = r.renegLat.percentiles()
	r.timing.QueryRequests = r.queryLat.count()
	r.timing.QueryP50MS, _, r.timing.QueryP99MS = r.queryLat.percentiles()
	r.timing.TotalMS = msSince(start)

	return &Report{
		Bench:    "scenario",
		Scenario: plan.Name,
		Config: ReportConfig{
			Seed: plan.Seed, Users: plan.Users, Steps: plan.Steps,
			Batch: cfg.Batch, Queries: cfg.Queries, Sample: cfg.Sample,
			Cluster: cfg.Cluster, Async: cfg.Async, Binary: cfg.Binary,
			Grid:      fmt.Sprintf("%dx%d", plan.Grid.Rows, plan.Grid.Cols),
			Mechanism: string(cfg.Kind), Epsilon: r.eps,
		},
		Score:  score,
		Timing: r.timing,
	}, nil
}

func (r *runner) phase(name string) {
	if r.cfg.OnPhase != nil {
		r.cfg.OnPhase(name)
	}
	if r.cfg.Out != nil {
		fmt.Fprintf(r.cfg.Out, "scenario %s: %s\n", r.plan.Name, name)
	}
}

// forEach runs fn(i) for every i in [0, n) on `workers` goroutines,
// which take indices in order from a shared counter. It stops handing
// out indices at the first error or when ctx ends, and returns that
// error, else ctx's.
func forEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	var next atomic.Int64
	next.Store(-1)
	var failed atomic.Bool
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n || failed.Load() || ctx.Err() != nil {
					return
				}
				if err := fn(i); err != nil {
					failed.Store(true)
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		return err
	}
	return ctx.Err()
}

// ensureMech builds (once) the mechanism and graph for the policy's
// version.
func (r *runner) ensureMech(cp server.ClientPolicy) error {
	if cp.Graph == nil {
		return fmt.Errorf("scenario: policy v%d for user %d has no graph", cp.Version, cp.User)
	}
	if n := cp.Graph.NumNodes(); n != r.plan.Grid.NumCells() {
		return fmt.Errorf("scenario: server policy graph has %d nodes, scenario grid has %d cells — server not booted with the scenario grid?",
			n, r.plan.Grid.NumCells())
	}
	r.mmu.Lock()
	defer r.mmu.Unlock()
	if _, ok := r.mechs[cp.Version]; ok {
		return nil
	}
	m, err := mechanism.New(r.cfg.Kind, r.plan.Grid, cp.Graph, cp.Epsilon)
	if err != nil {
		return err
	}
	r.mechs[cp.Version] = m
	r.graphs[cp.Version] = cp.Graph
	r.eps = cp.Epsilon
	return nil
}

func (r *runner) mechFor(version int) (mechanism.Mechanism, bool) {
	r.mmu.Lock()
	defer r.mmu.Unlock()
	m, ok := r.mechs[version]
	return m, ok
}

// warmup pre-fetches every user's policy and builds the baseline
// mechanism before the measured window opens, so the ingest percentiles
// measure ingest — not a first-contact policy-fetch storm.
func (r *runner) warmup(ctx context.Context) error {
	r.phase("warmup")
	start := time.Now()
	err := forEach(ctx, r.cfg.Workers, r.plan.Users, func(u int) error {
		cp, err := r.client.PolicyContext(ctx, u)
		if err != nil {
			return err
		}
		r.version[u] = cp.Version
		return r.ensureMech(cp)
	})
	if err != nil {
		return fmt.Errorf("scenario warmup: %w", err)
	}
	r.timing.WarmupMS = msSince(start)
	return nil
}

// runWave marks the wave's infected cells (renegotiating every user's
// policy), then reports the wave's timestep range for every user.
func (r *runner) runWave(ctx context.Context, wi int, w Wave) error {
	if len(w.Infect) > 0 {
		r.phase("renegotiate")
		if _, err := r.client.MarkInfectedContext(ctx, w.Infect); err != nil {
			return fmt.Errorf("scenario wave %d: marking infected: %w", wi, err)
		}
		err := forEach(ctx, r.cfg.Workers, r.plan.Users, func(u int) error {
			start := time.Now()
			cp, err := r.client.PolicyContext(ctx, u)
			if err != nil {
				return err
			}
			r.renegLat.add(time.Since(start))
			r.version[u] = cp.Version
			return r.ensureMech(cp)
		})
		if err != nil {
			return fmt.Errorf("scenario wave %d: renegotiating: %w", wi, err)
		}
	}

	r.phase("ingest")
	err := forEach(ctx, r.cfg.Workers, r.plan.Users, func(u int) error {
		traj := r.plan.Trajectory(u)
		mech, ok := r.mechFor(r.version[u])
		if !ok {
			return fmt.Errorf("scenario: no mechanism for user %d policy v%d", u, r.version[u])
		}
		rng := r.relRNG[u]
		for t0 := w.Start; t0 < w.End; t0 += r.cfg.Batch {
			end := t0 + r.cfg.Batch
			if end > w.End {
				end = w.End
			}
			rel := make([]wire.Release, 0, end-t0)
			for t := t0; t < end; t++ {
				s := traj[t]
				z, err := mech.Release(rng, s)
				if err != nil {
					return fmt.Errorf("scenario: release for user %d t %d: %w", u, t, err)
				}
				rel = append(rel, wire.Release{T: t, X: z.X, Y: z.Y})
				r.traceH[u] = fnvU64(fnvU64(r.traceH[u], uint64(t)), uint64(s))
				r.relH[u] = fnvU64(fnvU64(r.relH[u], math.Float64bits(z.X)), math.Float64bits(z.Y))
			}
			if err := r.sendBatch(ctx, u, rel); err != nil {
				return fmt.Errorf("scenario: reporting user %d batch at t %d: %w", u, t0, err)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("scenario wave %d: %w", wi, err)
	}
	return nil
}

// sendBatch reports one batch over the configured transport, recording
// its latency.
func (r *runner) sendBatch(ctx context.Context, u int, rel []wire.Release) error {
	start := time.Now()
	defer func() { r.ingestLat.add(time.Since(start)) }()
	switch {
	case r.cfg.Async && r.cfg.Binary:
		ack, err := r.client.ReportBatchBinaryAsyncContext(ctx, u, rel)
		return asyncAckErr(ack, err)
	case r.cfg.Async:
		ack, err := r.client.ReportBatchAsyncContext(ctx, u, rel)
		return asyncAckErr(ack, err)
	case r.cfg.Binary:
		_, err := r.client.ReportBatchBinaryContext(ctx, u, rel)
		return err
	default:
		_, err := r.client.ReportBatchContext(ctx, u, rel)
		return err
	}
}

func asyncAckErr(ack server.AsyncAck, err error) error {
	if err != nil {
		return err
	}
	if ack.SyncFallback {
		return errors.New("scenario: async mode requested but server has no ingest queue (start it with async ingest enabled)")
	}
	return nil
}

// awaitDrain polls the ingest queue until it is empty, so the analytics
// phase (and the scorer's stored-record reads) see every release.
func (r *runner) awaitDrain(ctx context.Context) error {
	last, lastChange := -1, time.Now()
	for {
		st, err := r.client.IngestStatsContext(ctx)
		if err != nil {
			return fmt.Errorf("scenario drain: %w", err)
		}
		if !st.Enabled {
			return errors.New("scenario drain: server reports async ingest disabled")
		}
		if st.Depth == 0 {
			return nil
		}
		if st.Depth != last {
			last, lastChange = st.Depth, time.Now()
		}
		if time.Since(lastChange) > drainStall {
			return fmt.Errorf("scenario drain: queue stalled at depth %d for %v", st.Depth, drainStall)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(drainPoll):
		}
	}
}

// densityTimesteps returns the timesteps the density utility is scored
// at: each wave start plus the final step, deduplicated, ascending.
func (r *runner) densityTimesteps() []int {
	var ts []int
	seen := map[int]bool{}
	for _, w := range r.plan.Waves {
		if !seen[w.Start] {
			seen[w.Start] = true
			ts = append(ts, w.Start)
		}
	}
	if last := r.plan.Steps - 1; !seen[last] {
		ts = append(ts, last)
	}
	return ts
}

// analyticsPhase exercises the analytics surface under the scenario's
// spatial skew: prime each query shape once (deterministic misses),
// then fire cfg.Queries concurrent repeats (hits — ingest is complete,
// so nothing invalidates the caches). The hit/miss delta comes from
// GET /v2/analytics/stats around the phase; in cluster mode the router
// sums it across nodes, still deterministic for a fixed config.
func (r *runner) analyticsPhase(ctx context.Context) (CacheScore, error) {
	r.phase("analytics")
	type shape struct {
		name string
		run  func(ctx context.Context) error
	}
	var shapes []shape
	for _, t := range r.densityTimesteps() {
		t := t
		shapes = append(shapes, shape{
			name: fmt.Sprintf("density(t=%d)", t),
			run: func(ctx context.Context) error {
				d, err := r.client.DensityContext(ctx, t, densityBlocks, densityBlocks)
				if err != nil {
					return err
				}
				r.relMu.Lock()
				r.relDensity[t] = d
				r.relMu.Unlock()
				return nil
			},
		})
	}
	last := r.plan.Steps - 1
	seriesEnd := dayLen/2 - 1
	if seriesEnd > last {
		seriesEnd = last
	}
	shapes = append(shapes,
		shape{"density-coarse", func(ctx context.Context) error {
			_, err := r.client.DensityContext(ctx, last, 2*densityBlocks, 2*densityBlocks)
			return err
		}},
		shape{"density-series", func(ctx context.Context) error {
			_, err := r.client.DensitySeriesContext(ctx, 0, seriesEnd, densityBlocks, densityBlocks)
			return err
		}},
		shape{"exposure", func(ctx context.Context) error {
			_, err := r.client.ExposureContext(ctx, 0, last)
			return err
		}},
		shape{"census-day", func(ctx context.Context) error {
			_, err := r.client.CensusContext(ctx, dayLen, last)
			return err
		}},
		shape{"census-run", func(ctx context.Context) error {
			_, err := r.client.CensusContext(ctx, r.plan.Steps, last)
			return err
		}},
	)

	stats0, err := r.client.AnalyticsStatsContext(ctx)
	if err != nil {
		return CacheScore{}, fmt.Errorf("scenario analytics: %w", err)
	}
	// Prime sequentially: every distinct cache key computes exactly once.
	for _, sh := range shapes {
		start := time.Now()
		if err := sh.run(ctx); err != nil {
			return CacheScore{}, fmt.Errorf("scenario analytics %s: %w", sh.name, err)
		}
		r.queryLat.add(time.Since(start))
	}
	// Repeat concurrently: warm-cache traffic under the query mix.
	err = forEach(ctx, min(r.cfg.Workers, 16), r.cfg.Queries, func(i int) error {
		sh := shapes[i%len(shapes)]
		start := time.Now()
		if err := sh.run(ctx); err != nil {
			return fmt.Errorf("scenario analytics %s: %w", sh.name, err)
		}
		r.queryLat.add(time.Since(start))
		return nil
	})
	if err != nil {
		return CacheScore{}, err
	}
	stats1, err := r.client.AnalyticsStatsContext(ctx)
	if err != nil {
		return CacheScore{}, fmt.Errorf("scenario analytics: %w", err)
	}
	cs := CacheScore{Hits: stats1.Hits - stats0.Hits, Misses: stats1.Misses - stats0.Misses}
	if total := cs.Hits + cs.Misses; total > 0 {
		cs.HitRate = float64(cs.Hits) / float64(total)
	}
	return cs, nil
}

// msSince is time.Since in float milliseconds.
func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}

// FNV-1a over little-endian uint64 words — the trace/release digest.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// foldDigest folds per-user digests (in user order) into one value.
func foldDigest(hs []uint64) string {
	h := fnvOffset
	for _, v := range hs {
		h = fnvU64(h, v)
	}
	return fmt.Sprintf("%016x", h)
}

// dist is the Euclidean distance between two cell centers.
func dist(g *geo.Grid, a, b int) float64 {
	return geo.Dist(g.Center(a), g.Center(b))
}
