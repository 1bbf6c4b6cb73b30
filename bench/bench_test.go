package main

import (
	"bytes"
	"encoding/binary"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pglp/panda/internal/policy"
	"github.com/pglp/panda/internal/server"
	"github.com/pglp/panda/internal/server/storage"
)

// tinySeconds is the measured window of the self-test's runs.
const tinySeconds = 0.25

// tiny shrinks a workload so the self-test can run every one of them,
// traced and untraced, in a few seconds.
func tiny(w *workload) sizes {
	s := w.sizes
	s.users, s.closedSeg, s.openSegs = 20, 100, 2
	switch w.name {
	case "ingest-json", "ingest-durable":
		s.closed, s.rate, s.peak = 200, 200, 400
	case "outbreak":
		s.closed, s.closedSeg, s.rate, s.jitter = 2, 1, 100, 50*time.Millisecond
	case "dashboard":
		s.preload, s.closed, s.rate, s.trickle, s.perStep = 2*dashWindow, 200, 300, 50, 10
	}
	return s
}

// TestMain lets the test binary serve as the benchmark's reference
// process, as the benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(referenceEnv) != "" {
		os.Exit(referenceMain(os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func tinyConfig(w *workload, seed uint64, trace bool) runConfig {
	return runConfig{seed: seed, seconds: tinySeconds, trace: trace, sizes: tiny(w), refRequests: 20}
}

// TestWorkloads runs every workload at a tiny size, untraced and traced,
// and checks that its checks pass and that it prints exactly the
// metrics BENCHMARK.json lists, each with its unit.
func TestWorkloads(t *testing.T) {
	bench, err := readBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bench.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bench.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, name := range workloadNames() {
		w := workloads[name]
		for _, trace := range []bool{false, true} {
			res, _, err := execute(w, tinyConfig(w, 1, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want[trace]) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json lists %d", name, trace, len(res.Metrics), len(want[trace]))
			}
			for metricName, unit := range want[trace] {
				m, ok := res.Metrics[metricName]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v, want unit %q", name, trace, metricName, m, unit)
				}
			}
		}
	}
}

// TestTraceAddsUp checks the traced run's parenting on ingest-json:
// every server span of a report nests inside the client span named in
// its header, so client span = client overhead + server span; the
// storage inserts find their report as parent; and a report's self
// time, its span minus its inserts, is below the span.
func TestTraceAddsUp(t *testing.T) {
	w := workloads["ingest-json"]
	res, tr, err := execute(w, tinyConfig(w, 2, true))
	if err != nil || !res.Correct {
		t.Fatalf("traced run: correct=%v err=%v", res.Correct, err)
	}
	clients := map[uint64]*span{}
	for i := range tr.spans {
		if s := &tr.spans[i]; s.kind == spanClient {
			clients[s.id] = s
		}
	}
	paired := 0
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.kind != spanServer || s.route != routeReports {
			continue
		}
		c, ok := clients[s.parent]
		if !ok {
			t.Fatalf("report span %d names no client span", s.id)
		}
		if s.start < c.start || s.end > c.end {
			t.Fatalf("report span [%d, %d] is not inside its client span [%d, %d]", s.start, s.end, c.start, c.end)
		}
		paired++
	}
	if paired == 0 {
		t.Fatal("no report spans were recorded")
	}
	if f := res.Metrics["trace.unattributed_frac"].Value; f > 0.05 {
		t.Errorf("%.0f%% of storage spans found no parent on ingest-json", 100*f)
	}
	if self, whole := res.Metrics["server.reports_self_p50_ms"].Value, res.Metrics["server.reports_p50_ms"].Value; self >= whole {
		t.Errorf("report self time %v is not below the report span %v", self, whole)
	}
}

// dropOne is a faulty store: it silently loses the at-th record it is
// asked to insert. The benchmark's checks must notice.
type dropOne struct {
	storage.Store
	at   int64
	seen atomic.Int64
}

func (d *dropOne) Insert(rec storage.Record) bool {
	if d.seen.Add(1)-1 == d.at {
		return true
	}
	return d.Store.Insert(rec)
}

func (d *dropOne) InsertBatch(recs []storage.Record) int {
	end := d.seen.Add(int64(len(recs)))
	i := d.at - (end - int64(len(recs)))
	if i < 0 || i >= int64(len(recs)) {
		return d.Store.InsertBatch(recs)
	}
	kept := append(append([]storage.Record(nil), recs[:i]...), recs[i+1:]...)
	return d.Store.InsertBatch(kept) + 1
}

func TestChecksCatchADroppedRecord(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		cfg := tinyConfig(w, 3, false)
		cfg.wrapStore = func(s storage.Store) storage.Store { return &dropOne{Store: s, at: 7} }
		res, _, err := execute(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct {
			t.Errorf("%s: a store that loses a record passed the checks", name)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(v, n=4) and statistics.median give, which is how
// spreads across runs are judged.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v         []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{7, 1, 3}, 1, 3, 7},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
	} {
		q1, m, q3 := quartiles(c.v)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.v, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// TestInputsAreDeterministic checks that a seed fixes each workload's
// schedule and the releases its phones send, and that another seed
// changes them.
func TestInputsAreDeterministic(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		a, da := scheduleBytes(t, w, 11)
		b, db := scheduleBytes(t, w, 11)
		c, dc := scheduleBytes(t, w, 12)
		if !bytes.Equal(a, b) || da != db {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if bytes.Equal(a, c) || da == dc {
			t.Errorf("%s: different seeds gave the same inputs", name)
		}
	}
}

// scheduleBytes serializes a workload's schedules and digests every
// release its reports would send under the initial policy.
func scheduleBytes(t *testing.T, w *workload, seed uint64) ([]byte, uint64) {
	t.Helper()
	cfg := tinyConfig(w, seed, false)
	in, err := newInputs(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ph := newPhones(in, nil)
	base := server.ClientPolicy{Version: 1, Epsilon: epsilon, Graph: policy.Baseline(in.grid)}
	for u := 0; u < in.users; u++ {
		if err := ph.adopt(u, base); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	var digest uint64
	for _, tasks := range [][]task{in.closed, in.open} {
		for _, tk := range tasks {
			if err := binary.Write(&buf, binary.LittleEndian, tk); err != nil {
				t.Fatal(err)
			}
			if tk.kind != kindReport {
				continue
			}
			rel, err := ph.perturb(int(tk.user), int(tk.t), cfg.sizes.batch)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rel {
				digest += releaseHash(r.T, r.X, r.Y)
			}
		}
	}
	return buf.Bytes(), digest
}
