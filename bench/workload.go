package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/pglp/panda/internal/server/storage"
)

// sizes are a workload's fixed input sizes. The benchmark's own sizes
// live in the workloads table; the self-test shrinks them.
type sizes struct {
	users int // simulated phones
	batch int // releases per report batch
	// closed is the closed-loop phase's work: report batches on the
	// ingest workloads, infection-mark waves on outbreak, queries on
	// dashboard.
	closed int
	// rate is the open loop's headline rate: report batches/s on ingest
	// and outbreak, queries/s on dashboard.
	rate float64
	// peak is the ingest workloads' second open-loop rate, in report
	// batches/s: the open loop runs its first half at rate and its second
	// half at peak.
	peak float64
	// trickle is dashboard's single-release reports/s in the open loop.
	trickle float64
	// perStep is how many trickle reports land on one timestep before
	// dashboard's newest step advances.
	perStep int
	// jitter is the spread of each user's renegotiation after an
	// infection mark on outbreak.
	jitter time.Duration
	// preload is dashboard's timesteps per user loaded during set-up.
	preload int
	// infected is how many hotspot cells dashboard marks before its
	// users arrive, so exposure and health codes have work to do.
	infected int
	// openShare is the share of the measured window the open loop runs;
	// the closed-loop phase is sized to take roughly the rest.
	openShare float64
	// closedSeg is how many closed-loop tasks (mark waves on outbreak)
	// make one measured segment, and openSegs how many segments the open
	// loop's window is cut into; outbreak marks once per segment. The
	// machine's speed is sampled at every segment boundary.
	closedSeg, openSegs int
}

// workload is one traffic mix. schedule lays out its operations from
// the seed; setup builds the server and warms the phones (timed as
// setup_s); measure runs the closed- and open-loop phases; check
// verifies what the server stored.
type workload struct {
	name     string
	sizes    sizes
	schedule func(in *inputs, cfg runConfig)
	setup    func(e *env) error
	measure  func(e *env) error
	check    func(e *env) error
}

var workloads = map[string]*workload{
	"ingest-json":    ingestJSON,
	"ingest-durable": ingestDurable,
	"outbreak":       outbreakWorkload,
	"dashboard":      dashboardWorkload,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runConfig is one invocation: which inputs, how long, traced or not.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	sizes   sizes
	log     io.Writer
	// refRequests is the reference work in one sample of the machine's
	// speed (see reference.go).
	refRequests int
	// wrapStore, when set, decorates the server's store. The self-test
	// uses it to inject a fault the checks must catch.
	wrapStore func(storage.Store) storage.Store
}

// openWindow is the open loop's length, and openSegment the length of
// one of its segments.
func (c runConfig) openWindow() time.Duration {
	return time.Duration(c.seconds * c.sizes.openShare * float64(time.Second))
}

func (c runConfig) openSegment() time.Duration {
	return c.openWindow() / time.Duration(c.sizes.openSegs)
}

// setupRuns is how many times an untraced run sets up; the median is
// reported as setup_s.
const setupRuns = 3

// workers is how many client goroutines and connections the load
// generator uses: at most two, the core count of the box the rates were
// calibrated on, so the offered load is the same on any machine.
func workers() int { return min(2, runtime.NumCPU()) }

// env is the state of one set-up: the inputs, the running server, the
// phones and the measurements taken so far.
type env struct {
	cfg runConfig
	in  *inputs
	rig *rig
	ph  *phones
	tr  *tracer // nil on untraced runs
	sp  *speedometer

	m         map[string]float64
	attempted atomic.Int64
	failed    atomic.Int64
	ops       atomic.Int64 // releases, queries, renegotiations and marks, for cpu_us_per_op
	load      loadStats

	// last is the machine's speed sampled at the last segment boundary,
	// and speeds every measured segment's speed.
	last   speed
	speeds []speed
	// ack and op are open-loop latencies at nominal speed: of reports,
	// and of the workload's headline operation (see README.md).
	ack, op samples
	drains  samples       // wait for the ingest queue to drain at a segment's end
	cpu     time.Duration // process CPU time inside measured segments
	// cpuNominal is cpu at nominal speed.
	cpuNominal time.Duration
}

// phase starts a measured phase from a freshly collected heap, so the
// point at which the previous phase left the garbage collector does not
// leak into this one, and samples the machine's speed.
func (e *env) phase() error {
	runtime.GC()
	var err error
	e.last, err = e.sp.sample()
	return err
}

// segment runs fn as one measured segment and returns its wall time
// and its speed, between the machine's speed sampled just before and
// just after it. Its process CPU time adds to cpu, and at nominal speed
// to cpuNominal.
func (e *env) segment(fn func() error) (time.Duration, speed, error) {
	c0, start := cpuTime(), time.Now()
	err := fn()
	wall, cpu := time.Since(start), cpuTime()-c0
	after, serr := e.sp.sample()
	if err = errors.Join(err, serr); err != nil {
		return 0, speed{}, err
	}
	s := e.last.between(after)
	e.last = after
	e.speeds = append(e.speeds, s)
	e.cpu += cpu
	e.cpuNominal += scaled(cpu, s.cpu)
	return wall, s, nil
}

// scaled converts a duration measured at speed s to nominal speed.
func scaled(d time.Duration, s float64) time.Duration { return time.Duration(float64(d) * s) }

// closedSegments runs tasks as a closed loop over the load generator's
// workers, per tasks to a segment, and returns the units run reports
// for its tasks per second at nominal speed, over all segments. A
// segment ends once the ingest queue, if any, has drained.
func (e *env) closedSegments(tasks []task, per int, run func(t task) int) (float64, error) {
	var (
		units   atomic.Int64
		nominal time.Duration
	)
	for lo := 0; lo < len(tasks); lo += per {
		seg := tasks[lo:min(lo+per, len(tasks))]
		d, s, err := e.segment(func() error {
			closedLoop(workers(), len(seg), func(i int) { units.Add(int64(run(seg[i]))) })
			return e.drain()
		})
		if err != nil {
			return 0, err
		}
		nominal += scaled(d, s.wall)
	}
	return float64(units.Load()) / nominal.Seconds(), nil
}

// openSegments runs an open-loop schedule in segments of length seg:
// segment k runs the tasks due in [k·seg, (k+1)·seg). do runs one task;
// from is the instant its latency counts from. A segment ends once the
// ingest queue, if any, has drained; the latencies recorded in it are
// then scaled to nominal speed by latencyScale.
func (e *env) openSegments(sched []task, seg time.Duration, do func(l *openLoop, t task, from time.Time)) error {
	for lo := 0; lo < len(sched); {
		k := sched[lo].due / seg
		hi := lo + 1
		for hi < len(sched) && sched[hi].due/seg == k {
			hi++
		}
		l := newOpenLoop(sched[lo:hi], k*seg, (k+1)*seg)
		a0, o0 := e.ack.len(), e.op.len()
		_, s, err := e.segment(func() error {
			l.run(workers(), &e.load, func(t task, from time.Time) { do(l, t, from) })
			return e.drain()
		})
		if err != nil {
			return err
		}
		e.ack.scaleFrom(a0, latencyScale(s.wall))
		e.op.scaleFrom(o0, latencyScale(s.wall))
		lo = hi
	}
	return nil
}

// latencyScale converts a latency measured at wall-clock speed s to
// nominal speed. A latency at low load is partly CPU work, which slows
// with the machine, and partly wake-ups and loopback hops, which slow
// less: in calibration, latencies moved with about the 0.75th power of
// the wall-clock speed (README.md).
func latencyScale(s float64) float64 { return math.Pow(s, 0.75) }

// drain waits until the ingest queue, if the server runs one, has
// applied every acknowledged batch and the wal has synced, and records
// how long that took.
func (e *env) drain() error {
	if e.rig.srv.Ingest() == nil {
		return nil
	}
	start := time.Now()
	err := e.rig.awaitDrain()
	e.drains.add(time.Since(start))
	return err
}

func (e *env) logf(format string, args ...any) {
	if e.cfg.log != nil {
		fmt.Fprintf(e.cfg.log, "bench: "+format+"\n", args...)
	}
}

// fail counts a failed operation and logs the first few.
func (e *env) fail(what string, err error) {
	if n := e.failed.Add(1); n <= 5 {
		e.logf("%s failed: %v", what, err)
	}
}

// execute sets the workload up (several times on untraced runs),
// measures it once, checks the result and collects its metrics.
func execute(w *workload, cfg runConfig) (_ result, _ *tracer, err error) {
	in, err := newInputs(w, cfg)
	if err != nil {
		return result{}, nil, err
	}
	sp, err := startSpeedometer(cfg.log, cfg.refRequests)
	if err != nil {
		return result{}, nil, err
	}
	defer func() {
		if cerr := sp.close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
	}()
	setups := 1
	if !cfg.trace {
		setups = setupRuns
	}
	var (
		e          *env
		setupTimes []float64
	)
	for i := 0; i < setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return result{}, nil, err
			}
		}
		runtime.GC()
		e = newEnv(cfg, in, sp)
		var (
			d time.Duration
			s speed
		)
		err := e.phase()
		if err == nil {
			d, s, err = e.segment(func() error { return w.setup(e) })
		}
		if err != nil {
			return result{}, nil, errors.Join(fmt.Errorf("%s set-up: %w", w.name, err), e.close())
		}
		setupTimes = append(setupTimes, scaled(d, s.wall).Seconds())
	}
	e.speeds, e.cpu, e.cpuNominal = nil, 0, 0
	res, err := measureAndCheck(w, e)
	e.m["setup_s"] = percentile(setupTimes, 50)
	err = errors.Join(err, e.close())
	if err != nil {
		return result{}, nil, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := e.m[d.name]
		if !ok && !cfg.trace {
			return result{}, nil, fmt.Errorf("%s: metric %s was not measured", w.name, d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, e.tr, nil
}

func newEnv(cfg runConfig, in *inputs, sp *speedometer) *env {
	e := &env{cfg: cfg, in: in, sp: sp, m: map[string]float64{}}
	if cfg.trace {
		e.tr = newTracer()
	}
	e.ph = newPhones(in, e.tr)
	return e
}

// measureAndCheck runs the measured phases with process CPU time and
// the Go runtime's counters read around them, then the checks.
func measureAndCheck(w *workload, e *env) (result, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	an0 := e.rig.db.AnalyticsStats()
	if e.tr != nil {
		e.tr.on.Store(true)
	}
	if err := w.measure(e); err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	if e.tr != nil {
		e.tr.on.Store(false)
	}
	runtime.ReadMemStats(&ms1)
	ops := float64(max(1, e.ops.Load()))
	e.m["cpu_us_per_op"] = e.cpuNominal.Seconds() * 1e6 / ops
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	e.m["heap_mb"] = float64(live.HeapAlloc) / (1 << 20)
	e.m["ack_p50_ms"], e.m["op_p50_ms"] = e.ack.pct(50), e.op.pct(50)
	e.m["loadgen.ack_p99_ms"], e.m["loadgen.op_p99_ms"] = e.ack.pct(99), e.op.pct(99)

	e.m["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	e.m["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	e.m["runtime.alloc_kb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / ops
	e.m["runtime.mallocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / ops
	an := e.rig.db.AnalyticsStats()
	hits, misses := float64(an.Hits-an0.Hits), float64(an.Misses-an0.Misses)
	e.m["analytics.hits"], e.m["analytics.misses"] = hits, misses
	if hits+misses > 0 {
		e.m["analytics.hit_ratio"] = hits / (hits + misses)
	}
	e.m["analytics.entries"] = float64(an.DensityEntries + an.ExposureEntries + an.CensusEntries)
	users := e.rig.mgr.Users()
	e.m["policy.users"] = float64(len(users))
	if len(users) > 0 {
		e.m["policy.version_end"] = float64(e.rig.mgr.Version(users[0]))
	}
	if e.rig.srv.Ingest() != nil {
		e.m["ingest.drain_ms"] = e.drains.pct(50)
	}
	var walls, cpus []float64
	for _, s := range e.speeds {
		walls, cpus = append(walls, s.wall), append(cpus, s.cpu)
	}
	e.m["reference.wall_speed"], e.m["reference.cpu_speed"] = percentile(walls, 50), percentile(cpus, 50)
	lo, hi := minMax(walls)
	e.logf("%s: machine speed %.3f on the wall clock (%.3f to %.3f over %d segments), %.3f in CPU time; end-to-end metrics are scaled to speed 1",
		w.name, e.m["reference.wall_speed"], lo, hi, len(walls), e.m["reference.cpu_speed"])
	e.load.report(e.m)
	e.ph.report(e.m)
	if e.tr != nil {
		e.tr.report(e.m, e.cpu)
	}

	res := result{Attempted: e.attempted.Load(), Failed: e.failed.Load(), Correct: true}
	if err := w.check(e); err != nil {
		e.logf("%s: check failed: %v", w.name, err)
		res.Correct = false
	}
	if res.Attempted == 0 {
		res.Attempted = 1 // the output reports at least one; a run that attempted nothing fails
		res.Correct = false
	}
	return res, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
