package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/pglp/panda/internal/server/wire"
)

// Defaults for the router's two time knobs.
const (
	// DefaultProbeInterval is how often the background loop re-probes
	// every node's /v2/healthz. It doubles as the Retry-After hint on
	// node_unavailable errors: by the time a polite client retries, the
	// prober has had one more look.
	DefaultProbeInterval = 2 * time.Second
	// DefaultRequestTimeout bounds every upstream request (proxied,
	// scattered, or probe) so a wedged node yields a fail-fast error
	// naming it, never a hang.
	DefaultRequestTimeout = 10 * time.Second
)

// maxProxyBody bounds any body the router buffers (inbound report
// batches and upstream responses): the nodes' own request-body limit.
const maxProxyBody = wire.MaxRequestBody

// Config configures a Router. Ring is required; everything else
// defaults sensibly.
type Config struct {
	Ring *Ring
	// HTTPClient is the client used for all upstream requests. Nil means
	// http.DefaultClient-style transport with connection pooling.
	HTTPClient *http.Client
	// ProbeInterval is the background health-probe period
	// (DefaultProbeInterval when zero).
	ProbeInterval time.Duration
	// RequestTimeout bounds each upstream request
	// (DefaultRequestTimeout when zero).
	RequestTimeout time.Duration
}

// Router serves the /v2 surface over a static ring of panda-server
// nodes: per-user operations are proxied to the owning node, cross-user
// analytics are scatter-gathered and merged as sums (see the package
// comment for why sums are the whole merge). Create with New, mount
// Handler on a server, Start the health loop, Stop on shutdown.
type Router struct {
	ring       *Ring
	hc         *http.Client
	probeEvery time.Duration
	reqTimeout time.Duration
	nodes      []*nodeState

	stop      chan struct{}
	startOnce sync.Once
	stopOnce  sync.Once
	wg        sync.WaitGroup
}

// New builds a Router over the ring. Every node starts optimistically
// up; call Start to run the background prober.
func New(cfg Config) (*Router, error) {
	if cfg.Ring == nil {
		return nil, errors.New("cluster: router needs a ring")
	}
	rt := &Router{
		ring:       cfg.Ring,
		hc:         cfg.HTTPClient,
		probeEvery: cfg.ProbeInterval,
		reqTimeout: cfg.RequestTimeout,
		nodes:      make([]*nodeState, len(cfg.Ring.Nodes)),
		stop:       make(chan struct{}),
	}
	if rt.hc == nil {
		rt.hc = &http.Client{}
	}
	if rt.probeEvery <= 0 {
		rt.probeEvery = DefaultProbeInterval
	}
	if rt.reqTimeout <= 0 {
		rt.reqTimeout = DefaultRequestTimeout
	}
	for i := range rt.nodes {
		rt.nodes[i] = &nodeState{up: true}
	}
	return rt, nil
}

// Handler returns the router's HTTP surface: the same /v2 paths a
// single panda-server exposes, so clients point at the router with no
// code changes.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/reports", rt.handleReports)
	mux.HandleFunc("GET /v2/records", rt.handleUserProxy)
	mux.HandleFunc("GET /v2/policy", rt.handleUserProxy)
	mux.HandleFunc("GET /v2/healthcode", rt.handleHealthCode)
	mux.HandleFunc("POST /v2/infected", rt.handleInfected)
	mux.HandleFunc("GET /v2/density", rt.handleDensity)
	mux.HandleFunc("GET /v2/density/series", rt.handleDensitySeries)
	mux.HandleFunc("GET /v2/exposure", rt.handleExposure)
	mux.HandleFunc("GET /v2/census", rt.handleCensus)
	mux.HandleFunc("GET /v2/ingest/stats", rt.handleIngestStats)
	mux.HandleFunc("GET /v2/analytics/stats", rt.handleAnalyticsStats)
	mux.HandleFunc("GET /v2/healthz", rt.handleHealthz)
	return mux
}

// routerError writes the uniform error envelope from the router itself.
func routerError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(wire.Error{Error: fmt.Sprintf(format, args...), Code: code})
}

// failDown writes the fail-fast routing error: 503 node_unavailable
// naming the dead node, with the probe interval as the retry hint in
// both the standard Retry-After header and the envelope — the same
// dual-channel hint the async ingest queue uses for 429s, so the
// client's existing backoff path handles it with no new code.
func (rt *Router) failDown(w http.ResponseWriter, node *Node, reason string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", strconv.Itoa(int((rt.probeEvery+time.Second-1)/time.Second)))
	w.WriteHeader(http.StatusServiceUnavailable)
	_ = json.NewEncoder(w).Encode(wire.Error{
		Error:        fmt.Sprintf("node %s (%s) unavailable: %s", node.Name, node.URL, reason),
		Code:         wire.CodeNodeDown,
		RetryAfterMS: int(rt.probeEvery / time.Millisecond),
		Node:         node.Name,
	})
}

// reply is a buffered upstream response.
type reply struct {
	status      int
	contentType string
	retryAfter  string
	body        []byte
}

// fail is why one upstream leg of a routed request did not produce a
// usable 2xx body. Exactly one shape is set:
//   - node+reason (gateway=false): the node is down or unreachable →
//     503 node_unavailable naming it
//   - node+reason (gateway=true): the node answered but the body was
//     not the expected JSON → 502 naming it
//   - upstream: the node answered a non-2xx → passed through verbatim
type fail struct {
	node     *Node
	reason   string
	gateway  bool
	upstream *reply
}

// write renders the failure on the client-facing response.
func (f *fail) write(w http.ResponseWriter, rt *Router) {
	switch {
	case f.upstream != nil:
		ct := f.upstream.contentType
		if ct == "" {
			ct = "application/json"
		}
		w.Header().Set("Content-Type", ct)
		if f.upstream.retryAfter != "" {
			w.Header().Set("Retry-After", f.upstream.retryAfter)
		}
		w.WriteHeader(f.upstream.status)
		_, _ = w.Write(f.upstream.body)
	case f.gateway:
		routerError(w, http.StatusBadGateway, wire.CodeInternal,
			"node %s: %s", f.node.Name, f.reason)
	default:
		rt.failDown(w, f.node, f.reason)
	}
}

// callNode performs one upstream request against node i, folding the
// transport outcome into the node's health state: transport errors mark
// it down (so the next request fails fast), any answer marks it up.
// Returns the buffered reply, or a fail.
// Bodies are forwarded under contentType, so binary report batches pass
// through byte-identical (an empty contentType with a non-nil body falls
// back to JSON, which every other routed POST is).
func (rt *Router) callNode(ctx context.Context, i int, method, path, contentType string, body []byte) (*reply, *fail) {
	node, ns := &rt.ring.Nodes[i], rt.nodes[i]
	ctx, cancel := context.WithTimeout(ctx, rt.reqTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, node.URL+path, rd)
	if err != nil {
		return nil, &fail{node: node, reason: fmt.Sprintf("building request: %v", err), gateway: true}
	}
	if body != nil {
		if contentType == "" {
			contentType = "application/json"
		}
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		ns.markDown(fmt.Sprintf("%s %s: %v", method, path, err))
		return nil, &fail{node: node, reason: err.Error()}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
	if err != nil {
		ns.markDown(fmt.Sprintf("%s %s: reading response: %v", method, path, err))
		return nil, &fail{node: node, reason: fmt.Sprintf("reading response: %v", err)}
	}
	ns.markUp()
	return &reply{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		retryAfter:  resp.Header.Get("Retry-After"),
		body:        b,
	}, nil
}

// callNodeJSON is callNode plus the 2xx/decode contract: a non-2xx
// answer becomes an upstream-passthrough fail, a 2xx that does not
// decode into T becomes a 502.
func callNodeJSON[T any](rt *Router, ctx context.Context, i int, method, path string, body []byte) (T, *fail) {
	var out T
	rep, f := rt.callNode(ctx, i, method, path, "", body)
	if f != nil {
		return out, f
	}
	if rep.status/100 != 2 {
		return out, &fail{upstream: rep}
	}
	if err := json.Unmarshal(rep.body, &out); err != nil {
		return out, &fail{node: &rt.ring.Nodes[i], reason: fmt.Sprintf("decoding response: %v", err), gateway: true}
	}
	return out, nil
}

// scatter fans method+path (+body) out to every node in parallel and
// gathers the decoded bodies in ring order. Any leg failing fails the
// whole query — a partial aggregate would silently undercount, which is
// worse than an honest 503 (see CLUSTER.md's failure table). If any
// node is already marked down, the scatter fails naming it before
// dialing a single node, so a broadcast write such as POST /v2/infected
// never lands on only the live subset.
func scatter[T any](rt *Router, ctx context.Context, method, path string, body []byte) ([]T, *fail) {
	n := len(rt.ring.Nodes)
	for i := 0; i < n; i++ {
		if up, reason, _ := rt.nodes[i].snapshot(); !up {
			return nil, &fail{node: &rt.ring.Nodes[i], reason: reason}
		}
	}
	vals := make([]T, n)
	fails := make([]*fail, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], fails[i] = callNodeJSON[T](rt, ctx, i, method, path, body)
		}(i)
	}
	wg.Wait()
	for _, f := range fails {
		if f != nil {
			return nil, f
		}
	}
	return vals, nil
}

// pathWithQuery rebuilds the upstream path, preserving the client's
// query string.
func pathWithQuery(r *http.Request) string {
	if r.URL.RawQuery == "" {
		return r.URL.Path
	}
	return r.URL.Path + "?" + r.URL.RawQuery
}

// proxyUser forwards the request to the node owning user, buffering
// body (nil for GETs, forwarded under contentType otherwise) and
// copying the node's answer back verbatim.
func (rt *Router) proxyUser(w http.ResponseWriter, r *http.Request, user int, path, contentType string, body []byte) {
	i := rt.ring.OwnerIndex(user)
	node := &rt.ring.Nodes[i]
	if up, reason, _ := rt.nodes[i].snapshot(); !up {
		rt.failDown(w, node, reason)
		return
	}
	rep, f := rt.callNode(r.Context(), i, r.Method, path, contentType, body)
	if f != nil {
		f.write(w, rt)
		return
	}
	if rep.contentType != "" {
		w.Header().Set("Content-Type", rep.contentType)
	}
	if rep.retryAfter != "" {
		w.Header().Set("Retry-After", rep.retryAfter)
	}
	w.WriteHeader(rep.status)
	_, _ = w.Write(rep.body)
}

// userParam extracts the routing key from the query string. The router
// validates only what it needs to route; everything else is the owning
// node's job.
func userParam(r *http.Request) (int, error) {
	raw := r.URL.Query().Get("user")
	if raw == "" {
		return 0, fmt.Errorf("missing required query parameter %q", "user")
	}
	user, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("query parameter %q: %v", "user", err)
	}
	return user, nil
}

func (rt *Router) handleUserProxy(w http.ResponseWriter, r *http.Request) {
	user, err := userParam(r)
	if err != nil {
		routerError(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	rt.proxyUser(w, r, user, pathWithQuery(r), "", nil)
}

// handleReports peeks the routing key out of the batch body and
// forwards the raw bytes — the router never re-encodes a batch, so the
// owning node sees exactly what the client sent (mode query parameter
// included; async early-acks work through the router unchanged). The
// encoding comes from wire.ReportEncoding, the node's own rule, so an
// unsupported Content-Type is refused with 415 before any node is
// dialed. JSON bodies are peeked with a partial unmarshal, binary bodies
// read the user out of the fixed header (24 bytes, no parsing of the
// frames) and pass through byte-identical.
func (rt *Router) handleReports(w http.ResponseWriter, r *http.Request) {
	ct := r.Header.Get("Content-Type")
	binary, ok := wire.ReportEncoding(ct)
	if !ok {
		routerError(w, http.StatusUnsupportedMediaType, wire.CodeUnsupportedMedia,
			"unsupported Content-Type %q (want application/json or %s)", ct, wire.ContentTypeBinary)
		return
	}
	body, ok := readBody(w, r, "batch report")
	if !ok {
		return
	}
	var peek struct {
		User int `json:"user"`
	}
	var err error
	if binary {
		peek.User, err = wire.PeekBinaryReportUser(body)
	} else {
		err = json.Unmarshal(body, &peek)
	}
	if err != nil {
		routerError(w, http.StatusBadRequest, wire.CodeBadRequest, "decoding batch report: %v", err)
		return
	}
	rt.proxyUser(w, r, peek.User, pathWithQuery(r), ct, body)
}

// readBody buffers a request body the router forwards, bounded by the
// nodes' own limit: a longer body is answered 413 here, before any node
// is dialed, rather than cut short and forwarded. On failure it writes
// the error and returns ok=false.
func readBody(w http.ResponseWriter, r *http.Request, what string) (body []byte, ok bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxProxyBody+1))
	if err != nil {
		routerError(w, http.StatusBadRequest, wire.CodeBadRequest, "reading %s: %v", what, err)
		return nil, false
	}
	if len(body) > maxProxyBody {
		routerError(w, http.StatusRequestEntityTooLarge, wire.CodeBadRequest,
			"%s exceeds the router's %d-byte body limit", what, maxProxyBody)
		return nil, false
	}
	return body, true
}

// resolveNow returns the cluster-wide anchor timestep: the max of every
// node's MaxT. Window queries that omit ?now must anchor at the same
// timestep on every node — letting each node default to its own local
// MaxT would tally the same wall-clock moment at different timesteps
// and the merged census would not equal a single-node reference.
func (rt *Router) resolveNow(ctx context.Context) (int, *fail) {
	healths, f := scatter[wire.HealthzResponse](rt, ctx, http.MethodGet, "/v2/healthz", nil)
	if f != nil {
		return 0, f
	}
	now := 0
	for _, h := range healths {
		if h.MaxT > now {
			now = h.MaxT
		}
	}
	return now, nil
}

// withResolvedNow returns the request's path with an explicit now
// parameter, resolving it cluster-wide when the client omitted it.
func (rt *Router) withResolvedNow(r *http.Request) (string, *fail) {
	q := r.URL.Query()
	if q.Get("now") != "" {
		return pathWithQuery(r), nil
	}
	now, f := rt.resolveNow(r.Context())
	if f != nil {
		return "", f
	}
	q.Set("now", strconv.Itoa(now))
	return r.URL.Path + "?" + q.Encode(), nil
}

func (rt *Router) handleHealthCode(w http.ResponseWriter, r *http.Request) {
	user, err := userParam(r)
	if err != nil {
		routerError(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	path, f := rt.withResolvedNow(r)
	if f != nil {
		f.write(w, rt)
		return
	}
	rt.proxyUser(w, r, user, path, "", nil)
}

// handleInfected broadcasts the infection notice to every node — each
// node re-plans policies for the users it owns — and answers with the
// union of changed users. All nodes must take the notice: a node that
// misses it would keep certifying exposed users green, so a node known
// to be down fails the broadcast before any node is dialed. A node that
// dies mid-broadcast can still leave the others marked; repeating the
// notice once it returns is safe (marking already-infected cells
// changes nothing).
func (rt *Router) handleInfected(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, "infected cells")
	if !ok {
		return
	}
	resps, f := scatter[wire.InfectedResponse](rt, r.Context(), http.MethodPost, pathWithQuery(r), body)
	if f != nil {
		f.write(w, rt)
		return
	}
	changed := []int{}
	for _, resp := range resps {
		changed = append(changed, resp.Changed...)
	}
	sort.Ints(changed)
	writeJSON(w, wire.InfectedResponse{Changed: changed})
}

func (rt *Router) handleDensity(w http.ResponseWriter, r *http.Request) {
	resps, f := scatter[wire.DensityResponse](rt, r.Context(), http.MethodGet, pathWithQuery(r), nil)
	if f != nil {
		f.write(w, rt)
		return
	}
	merged := resps[0]
	for i, resp := range resps[1:] {
		if len(resp.Counts) != len(merged.Counts) {
			rt.gridMismatch(w, 0, i+1, len(merged.Counts), len(resp.Counts))
			return
		}
		for j, c := range resp.Counts {
			merged.Counts[j] += c
		}
		// Composite generation: the sum of per-node generations, monotone
		// the same way the sharded store's Gen sums per-shard counters.
		merged.Gen += resp.Gen
	}
	writeJSON(w, merged)
}

func (rt *Router) handleDensitySeries(w http.ResponseWriter, r *http.Request) {
	resps, f := scatter[wire.DensitySeriesResponse](rt, r.Context(), http.MethodGet, pathWithQuery(r), nil)
	if f != nil {
		f.write(w, rt)
		return
	}
	merged := resps[0]
	for i, resp := range resps[1:] {
		if len(resp.Series) != len(merged.Series) {
			rt.gridMismatch(w, 0, i+1, len(merged.Series), len(resp.Series))
			return
		}
		for t, row := range resp.Series {
			if len(row) != len(merged.Series[t]) {
				rt.gridMismatch(w, 0, i+1, len(merged.Series[t]), len(row))
				return
			}
			for j, c := range row {
				merged.Series[t][j] += c
			}
		}
		merged.Epoch += resp.Epoch
	}
	writeJSON(w, merged)
}

func (rt *Router) handleExposure(w http.ResponseWriter, r *http.Request) {
	resps, f := scatter[wire.ExposureResponse](rt, r.Context(), http.MethodGet, pathWithQuery(r), nil)
	if f != nil {
		f.write(w, rt)
		return
	}
	merged := resps[0]
	for i, resp := range resps[1:] {
		if len(resp.Exposure) != len(merged.Exposure) {
			rt.gridMismatch(w, 0, i+1, len(merged.Exposure), len(resp.Exposure))
			return
		}
		for j, c := range resp.Exposure {
			merged.Exposure[j] += c
		}
		merged.Epoch += resp.Epoch
	}
	writeJSON(w, merged)
}

func (rt *Router) handleCensus(w http.ResponseWriter, r *http.Request) {
	path, f := rt.withResolvedNow(r)
	if f != nil {
		f.write(w, rt)
		return
	}
	resps, f := scatter[wire.CensusResponse](rt, r.Context(), http.MethodGet, path, nil)
	if f != nil {
		f.write(w, rt)
		return
	}
	merged := resps[0]
	for _, resp := range resps[1:] {
		for code, n := range resp.Census {
			merged.Census[code] += n
		}
		merged.Epoch += resp.Epoch
	}
	writeJSON(w, merged)
}

// handleIngestStats merges the per-node queue counters: capacities,
// depths and counts sum; the cluster is "enabled" only when every node
// runs async ingest; lag reports the slowest node (the one acks are
// furthest ahead of).
func (rt *Router) handleIngestStats(w http.ResponseWriter, r *http.Request) {
	resps, f := scatter[wire.IngestStatsResponse](rt, r.Context(), http.MethodGet, pathWithQuery(r), nil)
	if f != nil {
		f.write(w, rt)
		return
	}
	merged := resps[0]
	for _, resp := range resps[1:] {
		merged.Enabled = merged.Enabled && resp.Enabled
		merged.Depth += resp.Depth
		merged.Capacity += resp.Capacity
		merged.Workers += resp.Workers
		merged.Enqueued += resp.Enqueued
		merged.Drained += resp.Drained
		merged.Dropped += resp.Dropped
		merged.Rejected += resp.Rejected
		merged.Throttled += resp.Throttled
		// Budgets are enforced per node, not cluster-wide; report the
		// largest so operators see the loosest bound a user can hit.
		if resp.UserCap > merged.UserCap {
			merged.UserCap = resp.UserCap
		}
		if resp.LagMS > merged.LagMS {
			merged.LagMS = resp.LagMS
		}
	}
	writeJSON(w, merged)
}

// handleAnalyticsStats merges the per-node analytics cache counters as
// sums: each node caches its own partition's aggregates independently,
// so the fleet-wide hit rate is the ratio of the summed counters.
func (rt *Router) handleAnalyticsStats(w http.ResponseWriter, r *http.Request) {
	resps, f := scatter[wire.AnalyticsStatsResponse](rt, r.Context(), http.MethodGet, pathWithQuery(r), nil)
	if f != nil {
		f.write(w, rt)
		return
	}
	merged := resps[0]
	for _, resp := range resps[1:] {
		merged.Hits += resp.Hits
		merged.Misses += resp.Misses
		merged.DensityEntries += resp.DensityEntries
		merged.ExposureEntries += resp.ExposureEntries
		merged.CensusEntries += resp.CensusEntries
	}
	writeJSON(w, merged)
}

// handleHealthz probes every node fresh and reports the fleet: per-node
// status plus the composite cluster epoch (sum of reachable nodes'
// epochs). Degraded fleets answer 503, so a load balancer in front of
// two routers needs no cluster knowledge.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rt.ProbeOnce(r.Context())
	resp := wire.ClusterHealthzResponse{
		Status:     "ok",
		Partitions: rt.ring.Partitions,
		Nodes:      make([]wire.NodeStatus, len(rt.ring.Nodes)),
	}
	for i := range rt.ring.Nodes {
		node := &rt.ring.Nodes[i]
		up, reason, health := rt.nodes[i].snapshot()
		st := wire.NodeStatus{
			Name:       node.Name,
			URL:        node.URL,
			Partitions: node.Partitions,
			Up:         up,
			Error:      reason,
		}
		if up {
			st.Records = health.Records
			st.MaxT = health.MaxT
			st.Epoch = health.Epoch
			resp.ClusterEpoch += health.Epoch
		} else {
			resp.Status = "degraded"
		}
		resp.Nodes[i] = st
	}
	if resp.Status != "ok" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(resp)
		return
	}
	writeJSON(w, resp)
}

// gridMismatch reports scattered analytics whose shapes disagree — the
// nodes are running different grid configurations, which merging would
// silently corrupt.
func (rt *Router) gridMismatch(w http.ResponseWriter, a, b, lenA, lenB int) {
	routerError(w, http.StatusInternalServerError, wire.CodeInternal,
		"nodes %s and %s disagree on grid shape (%d vs %d regions) — all nodes must run identical grid flags",
		rt.ring.Nodes[a].Name, rt.ring.Nodes[b].Name, lenA, lenB)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
