package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"github.com/pglp/panda/internal/geo"
)

// outbreakWorkload is the paper's contact-tracing flow: while phones
// keep reporting, the health authority marks hotspot cells infected,
// every user's policy graph is re-issued, and each phone renegotiates
// and rebuilds its mechanism. It concentrates work in MarkInfected,
// policy-graph marshal and decode, and mechanism rebuilds. Its reports
// have the same shape as ingest-json's, so the pair isolates the
// policy layer.
var outbreakWorkload = &workload{
	name: "outbreak",
	sizes: sizes{
		users: 100, batch: 25, closed: 12, rate: 100, jitter: 2 * time.Second,
		openShare: 0.8, closedSeg: 2, openSegs: 6,
	},
	schedule: outbreakSchedule,
	setup:    func(e *env) error { return ingestSetup(e, rigOptions{}) },
	measure:  outbreakMeasure,
	check:    outbreakCheck,
}

// outbreakSchedule lays out the open loop's Poisson reports and its
// evenly spaced marks; the renegotiations are scheduled as each mark
// returns. The closed-loop phase is the first sizes.closed hotspots.
func outbreakSchedule(in *inputs, cfg runConfig) {
	s := cfg.sizes
	window := cfg.openWindow()
	rng := rand.New(rand.NewPCG(cfg.seed, 0x0b7ea4))
	next := make([]int, in.users)
	for _, at := range poisson(s.rate, window, rng.Float64) {
		u := rng.IntN(in.users)
		in.open = append(in.open, task{due: at, kind: kindReport, user: int32(u), t: int32(next[u])})
		next[u] += s.batch
	}
	// Each segment of the open loop opens with a mark, a twentieth of the
	// way in, so the renegotiations it triggers land inside it.
	seg := cfg.openSegment()
	for k := 0; k < s.openSegs; k++ {
		at := time.Duration(k)*seg + seg/20
		in.open = append(in.open, task{due: at, kind: kindMark, t: int32(s.closed + k)})
	}
	sortByDue(in.open)
}

// renegJitter is user u's delay, after mark k returns, before it
// renegotiates: uniform in [0, jitter), fixed by the seed.
func (in *inputs) renegJitter(k, u int, jitter time.Duration) time.Duration {
	h := mix64(in.seed ^ uint64(k)<<40 ^ uint64(u) ^ 0x5eed)
	return time.Duration(float64(h>>11) / (1 << 53) * float64(jitter))
}

// mark has the health authority mark hotspot k infected and returns the
// users whose policies changed.
func (e *env) mark(k int) ([]int, error) {
	if k >= len(e.in.hotspots) {
		return nil, fmt.Errorf("no hotspot %d to mark", k)
	}
	return e.rig.client.MarkInfectedContext(context.Background(), []int{e.in.hotspots[k]})
}

func outbreakMeasure(e *env) error {
	s := e.cfg.sizes
	// Closed loop: mark, then every changed user renegotiates as fast as
	// the workers allow. Capacity is users brought to the new version
	// per second, mark included. Failures are counted, not returned.
	if err := e.phase(); err != nil {
		return err
	}
	var (
		renegotiated int
		nominal      time.Duration
	)
	for k0 := 0; k0 < s.closed; k0 += s.closedSeg {
		d, sp, err := e.segment(func() error {
			for k := k0; k < min(k0+s.closedSeg, s.closed); k++ {
				var changed []int
				if !e.do("mark", 1, func() (err error) { changed, err = e.mark(k); return err }) {
					continue
				}
				closedLoop(workers(), len(changed), func(i int) {
					e.do("renegotiate", 1, func() error { return e.renegotiate(changed[i]) })
				})
				renegotiated += len(changed)
			}
			return nil
		})
		if err != nil {
			return err
		}
		nominal += scaled(d, sp.wall)
	}
	e.m["capacity_per_s"] = float64(renegotiated) / nominal.Seconds()

	if err := e.phase(); err != nil {
		return err
	}
	return e.openSegments(e.in.open, e.cfg.openSegment(), e.outbreakTask)
}

// outbreakTask executes one open-loop task: a report, a mark (which
// schedules every changed user's renegotiation), or a renegotiation.
func (e *env) outbreakTask(l *openLoop, t task, from time.Time) {
	s := e.cfg.sizes
	switch t.kind {
	case kindReport:
		if e.do("report", s.batch, func() error { return e.report(jsonSync, int(t.user), int(t.t), s.batch) }) {
			e.ack.add(time.Since(from))
		}
	case kindMark:
		var changed []int
		if !e.do("mark", 1, func() (err error) { changed, err = e.mark(int(t.t)); return err }) {
			return
		}
		back := l.elapsed()
		for _, u := range changed {
			l.schedule(task{due: back + e.in.renegJitter(int(t.t), u, s.jitter), kind: kindReneg, user: int32(u)})
		}
	case kindReneg:
		if e.do("renegotiate", 1, func() error { return e.renegotiate(int(t.user)) }) {
			e.op.add(time.Since(from))
		}
	}
}

// outbreakCheck verifies the stored releases, that every user ends on
// the policy version of the last mark on both sides, and that no stored
// release exactly discloses a cell its policy graph protects.
func outbreakCheck(e *env) error {
	st := e.rig.db.Store()
	if err := e.ph.checkStored(st); err != nil {
		return err
	}
	want := 1 + e.cfg.sizes.closed + e.cfg.sizes.openSegs
	for u := 0; u < e.in.users; u++ {
		if v := e.rig.mgr.Version(u); v != want {
			return fmt.Errorf("user %d: server holds policy v%d, want v%d", u, v, want)
		}
		if v := e.ph.version[u].Load(); v != int64(want) {
			return fmt.Errorf("user %d: phone holds policy v%d, want v%d", u, v, want)
		}
	}
	const exactTol = 1e-9
	for u := 0; u < e.in.users; u++ {
		for _, rec := range st.UserRecords(u) {
			g, ok := e.ph.graph(rec.PolicyVersion)
			if !ok {
				return fmt.Errorf("user %d t %d: stored under policy v%d, which no phone fetched", u, rec.T, rec.PolicyVersion)
			}
			s := e.in.cell(u, rec.T)
			if geo.AlmostEqual(rec.Point, e.in.grid.Center(s), exactTol) && g.Degree(s) > 0 {
				return fmt.Errorf("user %d t %d: release exactly discloses cell %d, protected under policy v%d", u, rec.T, s, rec.PolicyVersion)
			}
		}
	}
	return nil
}
