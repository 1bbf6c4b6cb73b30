package main

import (
	"container/heap"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// taskKind is what a scheduled operation does.
type taskKind uint8

const (
	kindReport taskKind = iota // a batch of releases for one user
	kindMark                   // the health authority marks a hotspot infected
	kindReneg                  // a phone renegotiates its policy
	kindDensity
	kindSeries
	kindExposure
	kindCensus
	kindHealthCode
)

// task is one client operation. Open-loop tasks carry the offset from
// the start of the window at which they are due.
type task struct {
	due  time.Duration
	kind taskKind
	user int32
	t    int32 // first timestep of a report; time parameter of a query
	zoom int16 // density block size of a query
	seq  int32 // schedule position: orders tasks due at the same instant
}

// taskHeap orders tasks by due time, then schedule position.
type taskHeap []task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].due != h[j].due {
		return h[i].due < h[j].due
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(task)) }
func (h *taskHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	*h = old[:len(old)-1]
	return t
}

// openLoop dispatches tasks at their due times over a fixed set of
// worker goroutines, whether or not earlier tasks have finished: the
// load independent phones put on a server. A task may schedule more
// tasks (a mark schedules its renegotiations), so workers wait for
// running tasks before concluding the schedule is done.
//
// Due times are offsets into the schedule. The loop replays the stretch
// [from, to) of it, starting at from.
type openLoop struct {
	start    time.Time
	from, to time.Duration

	mu      sync.Mutex
	cond    *sync.Cond
	pending taskHeap
	running int
	seq     int32
}

func newOpenLoop(sched []task, from, to time.Duration) *openLoop {
	l := &openLoop{from: from, to: to, pending: make(taskHeap, 0, len(sched))}
	l.cond = sync.NewCond(&l.mu)
	for i, t := range sched {
		t.seq = int32(i)
		l.pending = append(l.pending, t)
	}
	heap.Init(&l.pending)
	l.seq = int32(len(sched))
	return l
}

// schedule adds a task due at offset t.due.
func (l *openLoop) schedule(t task) {
	l.mu.Lock()
	t.seq = l.seq
	l.seq++
	heap.Push(&l.pending, t)
	l.mu.Unlock()
	l.cond.Signal()
}

// elapsed is the schedule's offset now.
func (l *openLoop) elapsed() time.Duration { return l.from + time.Since(l.start) }

// run executes every task and returns once the schedule is exhausted.
// It passes each task the instant its latency counts from: when it fell
// due, if it had to queue for a free worker, so that a stall also
// counts against the tasks queued behind it; otherwise when its idle
// worker woke to send it. Go's timers overshoot by about half a
// millisecond on Linux, which would otherwise be most of a report's
// latency. It records in st how late the generator ran: a worker that
// slept until a task was due measures the timer's overshoot, one that
// found the task already due measures how long the task queued.
func (l *openLoop) run(n int, st *loadStats, do func(t task, from time.Time)) {
	l.start = time.Now()
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				l.mu.Lock()
				for len(l.pending) == 0 && l.running > 0 {
					l.cond.Wait()
				}
				if len(l.pending) == 0 {
					l.mu.Unlock()
					l.cond.Broadcast()
					return
				}
				t := heap.Pop(&l.pending).(task)
				l.running++
				l.mu.Unlock()

				from := l.start.Add(t.due - l.from)
				if d := time.Until(from); d > 0 {
					time.Sleep(d)
					woke := time.Now()
					st.late.add(woke.Sub(from))
					from = woke
				} else {
					st.wait.add(-d)
				}
				if t.due < l.to && l.elapsed() > l.to {
					st.backlog.Add(1)
				}
				do(t, from)

				l.mu.Lock()
				l.running--
				l.mu.Unlock()
				l.cond.Broadcast()
			}
		}()
	}
	wg.Wait()
}

// closedLoop runs do(i) for i in [0, n) over n workers, each starting
// its next operation only when its previous one has finished, and
// returns the elapsed time.
func closedLoop(workers, n int, do func(i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// loadStats is the generator's own account of an open-loop run.
type loadStats struct {
	late    samples      // timer lateness of tasks a worker waited for
	wait    samples      // queueing of tasks already due when picked up
	backlog atomic.Int64 // tasks due inside the window but started after it closed
}

func (s *loadStats) report(m map[string]float64) {
	m["loadgen.late_p99_ms"] = s.late.pct(99)
	m["loadgen.queue_wait_p99_ms"] = s.wait.pct(99)
	m["loadgen.backlog_end"] = float64(s.backlog.Load())
}

// samples collects durations, in milliseconds, from many goroutines.
type samples struct {
	mu sync.Mutex
	ms []float64
}

func (s *samples) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ms)
}

// scaleFrom multiplies the samples from the i-th on by f.
func (s *samples) scaleFrom(i int, f float64) {
	s.mu.Lock()
	for k := i; k < len(s.ms); k++ {
		s.ms[k] *= f
	}
	s.mu.Unlock()
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.ms = append(s.ms, float64(d)/float64(time.Millisecond))
	s.mu.Unlock()
}

// pct returns the p-th percentile, interpolating between neighbouring
// order statistics; 0 when empty.
func (s *samples) pct(p float64) float64 {
	s.mu.Lock()
	v := append([]float64(nil), s.ms...)
	s.mu.Unlock()
	return percentile(v, p)
}

func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	r := p / 100 * float64(len(v)-1)
	lo := int(math.Floor(r))
	hi := min(lo+1, len(v)-1)
	return v[lo] + (v[hi]-v[lo])*(r-float64(lo))
}

func sortByDue(ts []task) {
	sort.SliceStable(ts, func(i, j int) bool { return ts[i].due < ts[j].due })
}

// poisson returns arrival offsets of a Poisson process at rate per
// second over [0, window), drawn from next (uniform in [0, 1)).
func poisson(rate float64, window time.Duration, next func() float64) []time.Duration {
	var out []time.Duration
	if rate <= 0 {
		return out
	}
	at := 0.0
	for {
		at += -math.Log(1-next()) / rate
		d := time.Duration(at * float64(time.Second))
		if d >= window {
			return out
		}
		out = append(out, d)
	}
}
