package main

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"time"

	"github.com/pglp/panda/internal/server/analytics"
)

// Dashboard query shapes: every range query spans one day of steps, and
// density queries pick a zoom level (region block size).
const dashWindow = 24

var dashZooms = [...]int16{2, 4, 8}

// dashboardWorkload is the health authority's dashboard over a fully
// loaded store: a query mix served by the analytics engine while a
// trickle of reports at the newest step invalidates some of its cache,
// so hits and misses share the engine. census misses on every write.
// The key space (about 1.5k density keys) fits the engine's caches, as
// a real dashboard's would.
var dashboardWorkload = &workload{
	name: "dashboard",
	sizes: sizes{
		users: 300, batch: 1, preload: 400, infected: 3,
		closed: 9_000, rate: 300, trickle: 100, perStep: 100,
		openShare: 0.55, closedSeg: 900, openSegs: 10,
	},
	schedule: dashboardSchedule,
	setup:    dashboardSetup,
	measure:  dashboardMeasure,
	check:    dashboardCheck,
}

// dashboardSchedule interleaves one trickle report per five queries in
// the closed loop and runs both as Poisson arrivals in the open loop.
// The n-th trickle report lands on step preload + n/perStep, from user
// n mod users, so its key is always fresh; queries know the newest step
// their arrival can see.
func dashboardSchedule(in *inputs, cfg runConfig) {
	s := cfg.sizes
	rng := rand.New(rand.NewPCG(cfg.seed, 0xda5b))
	mix := &dashMix{rng: rng}
	writes := 0
	write := func(due time.Duration) task {
		t := task{due: due, kind: kindReport, user: int32(writes % in.users), t: int32(s.preload + writes/s.perStep)}
		writes++
		return t
	}
	newest := func() int {
		if writes == 0 {
			return s.preload - 1
		}
		return s.preload + (writes-1)/s.perStep
	}
	for len(in.closed) < s.closed {
		if len(in.closed)%6 == 5 {
			in.closed = append(in.closed, write(0))
			continue
		}
		in.closed = append(in.closed, dashQuery(mix, in.users, newest(), 0))
	}
	queries := poisson(s.rate, cfg.openWindow(), rng.Float64)
	trickle := poisson(s.trickle, cfg.openWindow(), rng.Float64)
	for len(queries) > 0 || len(trickle) > 0 {
		if len(trickle) > 0 && (len(queries) == 0 || trickle[0] <= queries[0]) {
			in.open = append(in.open, write(trickle[0]))
			trickle = trickle[1:]
			continue
		}
		in.open = append(in.open, dashQuery(mix, in.users, newest(), queries[0]))
		queries = queries[1:]
	}
}

// dashBlock is the query mix, dealt in blocks of this many queries:
// 40% density (a fifth of them at the newest three steps), 20% density
// series, 15% exposure, 15% census, 10% health code.
var dashBlock = [20]taskKind{
	kindDensity, kindDensity, kindDensity, kindDensity, kindDensity, kindDensity, kindDensity, kindDensity,
	kindSeries, kindSeries, kindSeries, kindSeries,
	kindExposure, kindExposure, kindExposure,
	kindCensus, kindCensus, kindCensus,
	kindHealthCode, kindHealthCode,
}

// dashMix deals query kinds: each block of len(dashBlock) queries holds
// the mix exactly, in a seeded order. The costs of the kinds differ by
// two orders of magnitude, so a mix drawn independently per query would
// move the latency percentiles from seed to seed.
type dashMix struct {
	rng   *rand.Rand
	block []taskKind
}

func (m *dashMix) next() taskKind {
	if len(m.block) == 0 {
		m.block = append(m.block, dashBlock[:]...)
		m.rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
	}
	k := m.block[0]
	m.block = m.block[1:]
	return k
}

// dashQuery draws the mix's next query.
func dashQuery(mix *dashMix, users, newest int, due time.Duration) task {
	rng := mix.rng
	q := task{due: due, kind: mix.next(), zoom: dashZooms[rng.IntN(len(dashZooms))]}
	rangeEnd := func() int32 { return int32(dashWindow - 1 + rng.IntN(newest-dashWindow+2)) }
	switch q.kind {
	case kindDensity:
		if rng.Float64() < 0.2 {
			q.t = int32(newest - rng.IntN(3))
		} else {
			q.t = int32(rng.IntN(newest + 1))
		}
	case kindSeries, kindExposure:
		q.t = rangeEnd()
	case kindHealthCode:
		q.user = int32(rng.IntN(users))
	}
	return q
}

// dashboardSetup marks the first hotspots infected before any user
// arrives (so no versions change), warms every phone, and preloads
// every user's history through the binary report path.
func dashboardSetup(e *env) error {
	s := e.cfg.sizes
	if err := e.start(rigOptions{}); err != nil {
		return err
	}
	if _, err := e.rig.client.MarkInfected(e.in.hotspots[:s.infected]); err != nil {
		return err
	}
	if err := e.warmup(); err != nil {
		return err
	}
	return e.forUsers(func(u int) error { return e.report(binarySync, u, 0, s.preload) })
}

// query runs one dashboard query.
func (e *env) query(q task) error {
	c, ctx := e.rig.client, withUser(int(q.user))
	z := int(q.zoom)
	var err error
	switch q.kind {
	case kindDensity:
		_, err = c.DensityContext(ctx, int(q.t), z, z)
	case kindSeries:
		_, err = c.DensitySeriesContext(ctx, int(q.t)-dashWindow+1, int(q.t), z, z)
	case kindExposure:
		_, err = c.ExposureContext(ctx, int(q.t)-dashWindow+1, int(q.t))
	case kindCensus:
		_, err = c.CensusContext(ctx, dashWindow, -1)
	case kindHealthCode:
		_, err = c.HealthCodeContext(ctx, int(q.user), dashWindow, -1)
	default:
		err = fmt.Errorf("task kind %d is not a query", q.kind)
	}
	return err
}

// dashboardMeasure runs the closed loop (capacity in queries/s), then
// the open loop: trickle report acknowledgement (ack_*) and query
// latency (op_*). Failures are counted, not returned.
func dashboardMeasure(e *env) error {
	run := func(t task) (query bool, ok bool) {
		if t.kind == kindReport {
			return false, e.do("report", e.cfg.sizes.batch, func() error { return e.report(jsonSync, int(t.user), int(t.t), e.cfg.sizes.batch) })
		}
		return true, e.do("query", 1, func() error { return e.query(t) })
	}
	if err := e.phase(); err != nil {
		return err
	}
	capacity, err := e.closedSegments(e.in.closed, e.cfg.sizes.closedSeg, func(t task) int {
		if query, ok := run(t); query && ok {
			return 1
		}
		return 0
	})
	if err != nil {
		return err
	}
	e.m["capacity_per_s"] = capacity

	if err := e.phase(); err != nil {
		return err
	}
	return e.openSegments(e.in.open, e.cfg.openSegment(), func(_ *openLoop, t task, from time.Time) {
		query, ok := run(t)
		switch {
		case !ok:
		case query:
			e.op.add(time.Since(from))
		default:
			e.ack.add(time.Since(from))
		}
	})
}

// dashboardCheck verifies the stored releases, then that every cached
// aggregate the schedule asked for equals a fresh recompute over the
// same store.
func dashboardCheck(e *env) error {
	st := e.rig.db.Store()
	if err := e.ph.checkStored(st); err != nil {
		return err
	}
	cached, fresh := e.rig.db.Analytics(), analytics.New(e.in.grid, st)
	infected := e.rig.mgr.InfectedCells()
	seen := map[task]bool{}
	for _, q := range append(append([]task(nil), e.in.closed...), e.in.open...) {
		q.due, q.seq = 0, 0
		if q.kind == kindReport || seen[q] {
			continue
		}
		seen[q] = true
		t, z := int(q.t), int(q.zoom)
		var got, want any
		switch q.kind {
		case kindDensity:
			got, want = cached.DensityAt(t, z, z), fresh.DensityAt(t, z, z)
		case kindSeries:
			a, err1 := cached.DensitySeries(t-dashWindow+1, t, z, z)
			b, err2 := fresh.DensitySeries(t-dashWindow+1, t, z, z)
			got, want = []any{a, err1}, []any{b, err2}
		case kindExposure:
			a, err1 := cached.InfectedExposureSeries(t-dashWindow+1, t, infected)
			b, err2 := fresh.InfectedExposureSeries(t-dashWindow+1, t, infected)
			got, want = []any{a, err1}, []any{b, err2}
		case kindCensus:
			got, want = cached.CodeCensus(infected, dashWindow, -1), fresh.CodeCensus(infected, dashWindow, -1)
		case kindHealthCode:
			u := int(q.user)
			got, want = cached.HealthCodeFor(u, infected, dashWindow, -1), fresh.HealthCodeFor(u, infected, dashWindow, -1)
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("cached %v differs from a fresh recompute: %v vs %v", q, got, want)
		}
	}
	return nil
}
