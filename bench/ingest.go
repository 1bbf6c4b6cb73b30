package main

import (
	"fmt"
	"io/fs"
	"math/rand/v2"
	"path/filepath"
	"time"

	"github.com/pglp/panda/internal/server/storage/wal"
)

// ingestJSON concentrates work in JSON decode, policy.Manager.Get, grid
// validation and the sharded store's batch insert. It bypasses the
// wal, the ingest queue and analytics: every key is a fresh insert, and
// nothing is infected or queried.
var ingestJSON = &workload{
	name: "ingest-json",
	sizes: sizes{
		users: 250, batch: 25, closed: 50_000, rate: 1_000, peak: 2_000,
		openShare: 0.55, closedSeg: 5_000, openSegs: 10,
	},
	schedule: ingestSchedule,
	setup:    func(e *env) error { return ingestSetup(e, rigOptions{}) },
	measure:  func(e *env) error { return ingestMeasure(e, jsonSync) },
	check:    func(e *env) error { return e.ph.checkStored(e.rig.db.Store()) },
}

// ingestDurable is the same traffic in binary frames with early
// acknowledgement over a striped wal that fsyncs every write. It
// concentrates work in binary decode, the ingest queue's drain lanes,
// stripe append and fsync, and bypasses the JSON decoder and analytics.
var ingestDurable = &workload{
	name: "ingest-durable",
	sizes: sizes{
		users: 250, batch: 25, closed: 40_000, rate: 1_000, peak: 2_000,
		openShare: 0.55, closedSeg: 4_000, openSegs: 10,
	},
	schedule: ingestSchedule,
	setup:    func(e *env) error { return ingestSetup(e, rigOptions{durable: true, async: true}) },
	measure:  func(e *env) error { return ingestMeasure(e, binaryAsync) },
	check:    durableCheck,
}

// ingestSchedule gives the closed-loop phase its batches round-robin
// over the users, then has the open loop pick a random user per Poisson
// arrival and send that user's next timesteps: at rate for the first
// half of the window, at peak for the second.
func ingestSchedule(in *inputs, cfg runConfig) {
	s := cfg.sizes
	next := make([]int, in.users)
	in.closed = make([]task, s.closed)
	for i := range in.closed {
		u := i % in.users
		in.closed[i] = task{kind: kindReport, user: int32(u), t: int32(next[u])}
		next[u] += s.batch
	}
	rng := rand.New(rand.NewPCG(cfg.seed, 0x1a9e57))
	half := cfg.openWindow() / 2
	for i, rate := range []float64{s.rate, s.peak} {
		for _, at := range poisson(rate, half, rng.Float64) {
			u := rng.IntN(in.users)
			in.open = append(in.open, task{due: time.Duration(i)*half + at, kind: kindReport, user: int32(u), t: int32(next[u])})
			next[u] += s.batch
		}
	}
}

func ingestSetup(e *env, o rigOptions) error {
	if err := e.start(o); err != nil {
		return err
	}
	return e.warmup()
}

// ingestMeasure runs the closed loop (capacity), then the open loop:
// acknowledgement latency at the base rate (ack_*) and at the peak rate
// (op_*). On the async path a segment ends when the queue has drained
// and the wal has synced.
func ingestMeasure(e *env, enc encoding) error {
	s := e.cfg.sizes
	sampler := e.sampleIngest()
	defer sampler.stop()
	send := func(t task) bool {
		return e.do("report", s.batch, func() error { return e.report(enc, int(t.user), int(t.t), s.batch) })
	}

	if err := e.phase(); err != nil {
		return err
	}
	capacity, err := e.closedSegments(e.in.closed, s.closedSeg, func(t task) int {
		if !send(t) {
			return 0
		}
		return s.batch
	})
	if err != nil {
		return err
	}
	e.m["capacity_per_s"] = capacity

	if err := e.phase(); err != nil {
		return err
	}
	half := e.cfg.openWindow() / 2
	err = e.openSegments(e.in.open, e.cfg.openSegment(), func(_ *openLoop, t task, from time.Time) {
		switch {
		case !send(t):
		case t.due < half:
			e.ack.add(time.Since(from))
		default:
			e.op.add(time.Since(from))
		}
	})
	if err != nil {
		return err
	}
	sampler.stop()
	if e.rig.wal != nil && e.tr != nil {
		st := e.rig.wal.Stats()
		e.m["wal.compactions"] = float64(st.Compactions)
		e.m["wal.garbage"] = float64(st.Garbage)
		if st.LiveRecords > 0 {
			size, err := dirSize(e.rig.walDir)
			if err != nil {
				return err
			}
			e.m["wal.disk_bytes_per_record"] = float64(size) / float64(st.LiveRecords)
		}
	}
	return nil
}

// durableCheck verifies the live store, then closes the wal, reopens
// its directory and verifies the recovered records again.
func durableCheck(e *env) error {
	if err := e.ph.checkStored(e.rig.db.Store()); err != nil {
		return err
	}
	if err := e.rig.stopServing(); err != nil {
		return err
	}
	err := e.rig.wal.Close()
	e.rig.wal = nil
	if err != nil {
		return err
	}
	start := time.Now()
	re, err := wal.Open(e.rig.walDir, wal.Options{Shards: storeShards})
	if err != nil {
		return fmt.Errorf("reopening the wal: %w", err)
	}
	e.m["wal.reopen_ms"] = float64(time.Since(start)) / float64(time.Millisecond)
	err = e.ph.checkStored(re)
	if cerr := re.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("after reopening the wal: %w", err)
	}
	return nil
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// ingestSampler polls the ingest queue's counters every 10 ms on traced
// async runs.
type ingestSampler struct {
	done chan struct{}
	wait chan struct{}
}

func (e *env) sampleIngest() *ingestSampler {
	s := &ingestSampler{}
	q := e.rig.srv.Ingest()
	if q == nil || e.tr == nil {
		return s
	}
	s.done, s.wait = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(s.wait)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var lag samples
		depthMax := 0
		for {
			st := q.Stats()
			depthMax = max(depthMax, st.Depth)
			lag.add(st.Lag)
			select {
			case <-s.done:
				e.m["ingest.depth_max"] = float64(depthMax)
				e.m["ingest.lag_p99_ms"] = lag.pct(99)
				e.m["ingest.rejected"] = float64(st.Rejected)
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends sampling and waits for the sampler to record its metrics;
// calling it again is a no-op.
func (s *ingestSampler) stop() {
	if s.done == nil {
		return
	}
	close(s.done)
	<-s.wait
	s.done = nil
}
