package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pglp/panda/internal/server/storage"
)

// The traced run records spans at three boundaries, all from this
// package around calls into the program's public API: an
// http.RoundTripper under server.Client (client spans), middleware
// around the server's handler (server spans, parented by the client
// span named in spanHeader), and a storage.Store decorator handed to
// server.NewDBOn (storage spans, parented by time containment in a
// server span of the same user). Spans stay in memory until the run
// ends.

const spanHeader = "X-Bench-Span"

type spanKind uint8

const (
	spanClient spanKind = iota
	spanServer
	spanInsert
	spanScan
)

var spanKindNames = [...]string{"client", "server", "storage.insert", "storage.scan"}

// route is the API endpoint a client or server span served.
type route uint8

const (
	routeReports route = iota
	routePolicy
	routeInfected
	routeDensity
	routeSeries
	routeExposure
	routeCensus
	routeHealthCode
	routeOther
)

var routeNames = [...]string{"reports", "policy", "infected", "density", "series", "exposure", "census", "healthcode", "other"}

func routeOf(path string) route {
	switch path {
	case "/v2/reports":
		return routeReports
	case "/v2/policy":
		return routePolicy
	case "/v2/infected":
		return routeInfected
	case "/v2/density":
		return routeDensity
	case "/v2/density/series", "/v2/density_series":
		return routeSeries
	case "/v2/exposure":
		return routeExposure
	case "/v2/census":
		return routeCensus
	case "/v2/healthcode":
		return routeHealthCode
	}
	return routeOther
}

type span struct {
	id, parent uint64
	start, end int64 // ns since the tracer's epoch
	user       int32 // -1 when not known at this boundary
	n          int32 // records inserted or visited (storage spans)
	status     int16 // HTTP status (client and server spans)
	kind       spanKind
	route      route
}

func (s *span) ms() float64 { return float64(s.end-s.start) / 1e6 }

type tracer struct {
	epoch time.Time
	on    atomic.Bool // spans are recorded only while measuring
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span

	inflight, inflightMax atomic.Int64
	releaseNS, releases   atomic.Int64 // phone-side perturbation time
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// transport wraps the client's round tripper: each request carries its
// span ID to the server, and its span ends when the response body is
// closed, i.e. once the client has decoded the response.
func (t *tracer) transport(next http.RoundTripper) http.RoundTripper {
	return &tracedTransport{t: t, next: next}
}

type tracedTransport struct {
	t    *tracer
	next http.RoundTripper
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t := tt.t
	if !t.enabled() {
		return tt.next.RoundTrip(req)
	}
	s := span{id: t.ids.Add(1), kind: spanClient, route: routeOf(req.URL.Path), user: -1}
	if u, ok := req.Context().Value(userKey{}).(int); ok {
		s.user = int32(u)
	}
	req = req.Clone(req.Context()) // a RoundTripper must not modify its request
	req.Header.Set(spanHeader, strconv.FormatUint(s.id, 10))
	s.start = t.now()
	resp, err := tt.next.RoundTrip(req)
	if err != nil {
		s.end = t.now()
		t.add(s)
		return nil, err
	}
	s.status = int16(resp.StatusCode)
	resp.Body = &spanBody{ReadCloser: resp.Body, t: t, s: s}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.end = b.t.now()
		b.t.add(b.s)
	})
	return err
}

// middleware wraps the server's handler.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.enabled() {
			next.ServeHTTP(w, r)
			return
		}
		s := span{id: t.ids.Add(1), kind: spanServer, route: routeOf(r.URL.Path), user: -1}
		s.parent, _ = strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		n := t.inflight.Add(1)
		for m := t.inflightMax.Load(); n > m && !t.inflightMax.CompareAndSwap(m, n); m = t.inflightMax.Load() {
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		s.start = t.now()
		next.ServeHTTP(sw, r)
		s.end = t.now()
		t.inflight.Add(-1)
		s.status = int16(sw.status)
		t.add(s)
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// store decorates the server's store. It forwards NumShards, so the
// ingest queue still pins its drain lanes to stripes: without it the
// traced run would measure a differently wired program.
func (t *tracer) store(s storage.Store) storage.Store { return &tracedStore{Store: s, t: t} }

type tracedStore struct {
	storage.Store
	t *tracer
}

func (s *tracedStore) NumShards() int {
	if sh, ok := s.Store.(interface{ NumShards() int }); ok {
		return sh.NumShards()
	}
	return 0
}

func (s *tracedStore) Insert(rec storage.Record) bool {
	if !s.t.enabled() {
		return s.Store.Insert(rec)
	}
	sp := span{kind: spanInsert, user: int32(rec.User), n: 1, start: s.t.now()}
	added := s.Store.Insert(rec)
	sp.end = s.t.now()
	s.t.add(sp)
	return added
}

func (s *tracedStore) InsertBatch(recs []storage.Record) int {
	if !s.t.enabled() {
		return s.Store.InsertBatch(recs)
	}
	sp := span{kind: spanInsert, user: -1, n: int32(len(recs))}
	if len(recs) > 0 {
		sp.user = int32(recs[0].User)
	}
	sp.start = s.t.now()
	added := s.Store.InsertBatch(recs)
	sp.end = s.t.now()
	s.t.add(sp)
	return added
}

func (s *tracedStore) ScanRange(t0, t1 int, fn func(storage.Record) bool) {
	if !s.t.enabled() {
		s.Store.ScanRange(t0, t1, fn)
		return
	}
	sp := span{kind: spanScan, user: -1, start: s.t.now()}
	s.Store.ScanRange(t0, t1, func(r storage.Record) bool { sp.n++; return fn(r) })
	sp.end = s.t.now()
	s.t.add(sp)
}

func (s *tracedStore) Scan(fn func(storage.Record) bool) {
	if !s.t.enabled() {
		s.Store.Scan(fn)
		return
	}
	sp := span{kind: spanScan, user: -1, start: s.t.now()}
	s.Store.Scan(func(r storage.Record) bool { sp.n++; return fn(r) })
	sp.end = s.t.now()
	s.t.add(sp)
}

func (s *tracedStore) At(t int) []storage.Record {
	if !s.t.enabled() {
		return s.Store.At(t)
	}
	sp := span{kind: spanScan, user: -1, start: s.t.now()}
	out := s.Store.At(t)
	sp.end = s.t.now()
	sp.n = int32(len(out))
	s.t.add(sp)
	return out
}

// report turns the spans into the per-layer metrics. cpu is the
// process CPU time of the measured window, the base of overhead_pct.
func (t *tracer) report(m map[string]float64, cpu time.Duration) {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()

	clients := map[uint64]*span{}
	var servers, storageSpans []*span
	for i := range spans {
		s := &spans[i]
		switch s.kind {
		case spanClient:
			clients[s.id] = s
		case spanServer:
			servers = append(servers, s)
		default:
			storageSpans = append(storageSpans, s)
		}
	}

	var reportMS, policyMS, overheadMS []float64
	var status409, status429 int
	for _, c := range clients {
		switch c.route {
		case routeReports:
			reportMS = append(reportMS, c.ms())
		case routePolicy:
			policyMS = append(policyMS, c.ms())
		}
		switch c.status {
		case http.StatusConflict:
			status409++
		case http.StatusTooManyRequests:
			status429++
		}
	}
	m["client.report_p50_ms"], m["client.report_p99_ms"] = percentile(reportMS, 50), percentile(reportMS, 99)
	m["client.policy_p50_ms"] = percentile(policyMS, 50)
	m["client.status_409"], m["client.status_429"] = float64(status409), float64(status429)

	byRoute := make([][]float64, len(routeNames))
	var maxServer int64
	for _, s := range servers {
		byRoute[s.route] = append(byRoute[s.route], s.ms())
		maxServer = max(maxServer, s.end-s.start)
		if c, ok := clients[s.parent]; ok {
			s.user = c.user
			overheadMS = append(overheadMS, c.ms()-s.ms())
		}
	}
	m["client.overhead_p50_ms"] = percentile(overheadMS, 50)
	for _, r := range []route{routeReports, routePolicy, routeDensity, routeSeries, routeExposure, routeCensus, routeHealthCode} {
		name := "server." + routeNames[r]
		m[name+"_p50_ms"], m[name+"_p99_ms"] = percentile(byRoute[r], 50), percentile(byRoute[r], 99)
	}
	m["server.infected_ms"] = percentile(byRoute[routeInfected], 50)
	m["server.inflight_max"] = float64(t.inflightMax.Load())

	// Parent each storage span by time containment: the one server span
	// that encloses it (and, when both sides know it, acts for the same
	// user). None, or more than one, leaves it unattributed.
	sort.Slice(servers, func(i, j int) bool { return servers[i].start < servers[j].start })
	children := map[*span][]*span{}
	var insertUS, scanUS []float64
	var insertRecs, scanRecs, unattributed int
	for _, st := range storageSpans {
		us := float64(st.end-st.start) / 1e3
		if st.kind == spanInsert {
			insertUS = append(insertUS, us)
			insertRecs += int(st.n)
		} else {
			scanUS = append(scanUS, us)
			scanRecs += int(st.n)
		}
		var parent *span
		found := 0
		i := sort.Search(len(servers), func(i int) bool { return servers[i].start > st.start })
		for i--; i >= 0 && servers[i].start >= st.start-maxServer; i-- {
			s := servers[i]
			if s.end < st.end || (st.user >= 0 && s.user >= 0 && s.user != st.user) {
				continue
			}
			parent = s
			found++
		}
		if found != 1 {
			unattributed++
			continue
		}
		children[parent] = append(children[parent], st)
	}
	var selfMS []float64
	for _, s := range servers {
		if s.route == routeReports {
			selfMS = append(selfMS, s.ms()-covered(children[s])/1e6)
		}
	}
	m["server.reports_self_p50_ms"] = percentile(selfMS, 50)
	m["storage.insert_p50_us"], m["storage.insert_p99_us"] = percentile(insertUS, 50), percentile(insertUS, 99)
	m["storage.insert_calls"] = float64(len(insertUS))
	m["storage.scan_p50_us"], m["storage.scan_p99_us"] = percentile(scanUS, 50), percentile(scanUS, 99)
	m["storage.scan_calls"] = float64(len(scanUS))
	if len(insertUS) > 0 {
		m["storage.records_per_insert"] = float64(insertRecs) / float64(len(insertUS))
	}
	if len(scanUS) > 0 {
		m["storage.records_per_scan"] = float64(scanRecs) / float64(len(scanUS))
	}
	if len(storageSpans) > 0 {
		m["trace.unattributed_frac"] = float64(unattributed) / float64(len(storageSpans))
	}
	if n := t.releases.Load(); n > 0 {
		m["mechanism.release_us"] = float64(t.releaseNS.Load()) / 1e3 / float64(n)
	}
	if cpu > 0 {
		cc, cs, cst := wrapperCosts()
		cost := time.Duration(len(clients))*cc + time.Duration(len(servers))*cs + time.Duration(len(storageSpans))*cst
		m["trace.overhead_pct"] = 100 * float64(cost) / float64(cpu)
	}
}

// covered is how many ns the union of the spans covers.
func covered(spans []*span) float64 {
	if len(spans) == 0 {
		return 0
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var total, curStart, curEnd int64 = 0, spans[0].start, spans[0].end
	for _, s := range spans[1:] {
		if s.start > curEnd {
			total += curEnd - curStart
			curStart, curEnd = s.start, s.end
			continue
		}
		curEnd = max(curEnd, s.end)
	}
	return float64(total + curEnd - curStart)
}

// wrapperCosts times what recording adds to each boundary: the traced
// transport, middleware and store around stubs, minus the same calls
// with recording off. The traced run's overhead_pct is the recorded
// spans priced at these costs, as a share of the run's CPU time.
func wrapperCosts() (client, server, store time.Duration) {
	const n = 20_000
	scratch := newTracer()
	rt := scratch.transport(stubTransport{})
	h := scratch.middleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	st := scratch.store(storage.NewShardedStore(1))
	req, _ := http.NewRequest(http.MethodGet, "http://bench/v2/policy?user=1", nil)
	var w discardWriter
	perOp := func(op func()) time.Duration {
		timed := func(on bool) time.Duration {
			scratch.on.Store(on)
			start := time.Now()
			for i := 0; i < n; i++ {
				op()
			}
			return time.Since(start)
		}
		off := timed(false)
		return max(0, timed(true)-off) / n
	}
	client = perOp(func() {
		if resp, err := rt.RoundTrip(req); err == nil {
			resp.Body.Close()
		}
	})
	server = perOp(func() { h.ServeHTTP(w, req) })
	store = perOp(func() { st.InsertBatch(nil) })
	return client, server, store
}

type stubTransport struct{}

func (stubTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Body: http.NoBody}, nil
}

type discardWriter struct{}

func (discardWriter) Header() http.Header         { return http.Header{} }
func (discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (discardWriter) WriteHeader(int)             {}

// writeSpans writes every recorded span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		routeName := ""
		if s.kind == spanClient || s.kind == spanServer {
			routeName = routeNames[s.route]
		}
		err = enc.Encode(struct {
			ID      uint64 `json:"id,omitempty"`
			Parent  uint64 `json:"parent,omitempty"`
			Kind    string `json:"kind"`
			Route   string `json:"route,omitempty"`
			User    int32  `json:"user"`
			StartNS int64  `json:"start_ns"`
			EndNS   int64  `json:"end_ns"`
			Records int32  `json:"records,omitempty"`
			Status  int16  `json:"status,omitempty"`
		}{s.id, s.parent, spanKindNames[s.kind], routeName, s.user, s.start, s.end, s.n, s.status})
		if err != nil {
			break
		}
	}
	return errors.Join(err, bw.Flush(), f.Close())
}
