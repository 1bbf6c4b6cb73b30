package wire

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Machine-readable error codes carried in the uniform error envelope.
const (
	CodeBadRequest  = "bad_request"  // malformed body or out-of-range parameter
	CodeStalePolicy = "stale_policy" // client's policy version is outdated (409)
	CodeInternal    = "internal"     // server-side failure (500)
	CodeQueueFull   = "queue_full"   // async ingest queue at capacity, retry later (429)
	CodeUnavailable = "unavailable"  // server is shutting down (503)
	// CodeNodeDown is returned by the cluster router when the node owning
	// the requested user — or any node of a scatter-gather query — is
	// unreachable or failing its health probe. The envelope's Node field
	// names the dead node and the Retry-After header carries the probe
	// interval, so clients back off politely instead of hammering a dead
	// partition. (503)
	CodeNodeDown = "node_unavailable"
	// CodeUnsupportedMedia rejects a POST /v2/reports whose Content-Type
	// is neither JSON nor the binary record format (415).
	CodeUnsupportedMedia = "unsupported_media_type"
	// CodeUnknown is the client-side sentinel for a response that did
	// not carry a code: an {error} body without one, or a non-envelope
	// body, from an intermediary such as a proxy. Servers never send it;
	// clients matching on codes can treat it as "inspect the HTTP status
	// instead".
	CodeUnknown = "unknown"
)

// MaxRequestBody bounds the bytes of a request body that a node or the
// cluster router reads. Both sides use this one constant, so a node
// never refuses a body the router forwarded. It sits well above the
// largest well-formed batch (100k releases).
const MaxRequestBody = 64 << 20

// Error is the uniform /v2 error envelope. Every non-2xx response body
// decodes into it. On CodeStalePolicy the server includes the head of
// the user's current policy (no graph; see Policy), so a client that
// already holds the graph its GraphID names re-syncs without a second
// round trip (the dynamic-policy renegotiation of the contact-tracing
// protocol). On CodeQueueFull the server includes RetryAfterMS, its
// backpressure hint: how long the client should wait before re-sending
// the same batch (safe — ingestion replaces on (user, t)).
type Error struct {
	Error        string  `json:"error"`
	Code         string  `json:"code"`
	Policy       *Policy `json:"policy,omitempty"`
	RetryAfterMS int     `json:"retry_after_ms,omitempty"`
	// Node names the cluster node behind a CodeNodeDown routing error,
	// so automation can act on the failing node without parsing the
	// human-readable message.
	Node string `json:"node,omitempty"`
}

// Policy is the wire form of a user's location-privacy policy. GET
// /v2/policy and the stale_policy envelope carry only its head: user,
// ε, version and GraphID, the content ID of the graph's encoding (the
// hex of the first 16 bytes of its SHA-256). Equal graphs get equal IDs
// on every node, so a client keeps graphs by ID and downloads one only
// when it holds no graph with that ID. GET /v2/policy?graph=1 adds
// Graph, the encoding the ID names, verbatim: publishing policy graphs
// is part of the transparency story.
type Policy struct {
	User    int             `json:"user"`
	Epsilon float64         `json:"epsilon"`
	Version int             `json:"version"`
	GraphID string          `json:"graph_id"`
	Graph   json.RawMessage `json:"graph,omitempty"`
}

// Release is one perturbed location inside a batch report.
type Release struct {
	T int     `json:"t"`
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// BatchReportRequest is the JSON body of POST /v2/reports: many releases
// from one user under one policy version. PolicyVersion is required
// (≥ 1): a zero version is rejected, never treated as "skip the
// staleness check". The body carries no acknowledgement mode; early
// acknowledgement is requested with the ?mode=async query parameter
// alone, for this body and the binary one alike.
type BatchReportRequest struct {
	User          int       `json:"user"`
	PolicyVersion int       `json:"policy_version"`
	Releases      []Release `json:"releases"`
}

// BatchReportResponse summarizes a synchronous batch ingest: how many
// releases were new, how many replaced an existing (user, t) record (the
// re-send path), and the policy version they were accepted under.
type BatchReportResponse struct {
	Accepted      int `json:"accepted"`
	Replaced      int `json:"replaced"`
	PolicyVersion int `json:"policy_version"`
}

// AsyncReportResponse is the 202 Accepted body of an async batch report:
// the batch passed validation and was queued, not yet applied (and, on a
// durable store, not yet persisted — ack ≠ durable). QueueDepth is the
// number of records pending behind this acknowledgement, a load signal
// clients can use to self-throttle before hitting 429s.
type AsyncReportResponse struct {
	Queued        int `json:"queued"`
	QueueDepth    int `json:"queue_depth"`
	PolicyVersion int `json:"policy_version"`
}

// IngestStatsResponse is the body of GET /v2/ingest/stats — the
// observability surface of the async ingestion queue. With async ingest
// disabled, Enabled is false and every other field is zero.
type IngestStatsResponse struct {
	Enabled  bool `json:"enabled"`
	Depth    int  `json:"depth"`    // records enqueued, not yet applied
	Capacity int  `json:"capacity"` // queue bound in records
	Workers  int  `json:"workers"`  // background drain workers
	// UserCap is the per-user pending budget (fairness), 0 when
	// disabled. Through the cluster router it is the largest per-node
	// budget (budgets are enforced per node, not cluster-wide).
	UserCap  int    `json:"user_cap"`
	Enqueued uint64 `json:"enqueued"` // records accepted (202) since start
	Drained  uint64 `json:"drained"`  // records applied to the store
	Dropped  uint64 `json:"dropped"`  // records lost to a forced shutdown
	Rejected uint64 `json:"rejected"` // records refused with 429
	// Throttled is the subset of Rejected refused by the per-user
	// fairness budget rather than global queue pressure.
	Throttled uint64 `json:"throttled"`
	// LagMS is the enqueue→apply latency of the most recently applied
	// batch in milliseconds — how far the drain runs behind the acks.
	LagMS float64 `json:"lag_ms"`
}

// AnalyticsStatsResponse is the body of GET /v2/analytics/stats — the
// observability surface of the analytics engine's epoch-versioned
// caches. Hits and Misses are cumulative since server start; the entry
// counts are current cache sizes. Through the cluster router every
// field is the sum across nodes (each node caches independently, so the
// fleet-wide hit rate is the ratio of the summed counters).
type AnalyticsStatsResponse struct {
	Hits            uint64 `json:"hits"`
	Misses          uint64 `json:"misses"`
	DensityEntries  int    `json:"density_entries"`
	ExposureEntries int    `json:"exposure_entries"`
	CensusEntries   int    `json:"census_entries"`
}

// Record is the wire form of one stored release.
type Record struct {
	User          int     `json:"user"`
	T             int     `json:"t"`
	X             float64 `json:"x"`
	Y             float64 `json:"y"`
	Cell          int     `json:"cell"`
	PolicyVersion int     `json:"policy_version"`
}

// RecordsPage is one page of GET /v2/records. NextCursor is set when
// more records remain; pass it back verbatim to resume. An empty
// NextCursor means the listing is complete.
type RecordsPage struct {
	Records    []Record `json:"records"`
	NextCursor string   `json:"next_cursor,omitempty"`
}

// InfectedRequest is the body of POST /v2/infected.
type InfectedRequest struct {
	Cells []int `json:"cells"`
}

// InfectedResponse lists the users whose policies changed.
type InfectedResponse struct {
	Changed []int `json:"changed"`
}

// HealthCodeResponse certifies one user. Now echoes the timestep the
// window was anchored at (resolved server-side when the request omitted
// it).
type HealthCodeResponse struct {
	User   int    `json:"user"`
	Code   string `json:"code"`
	Window int    `json:"window"`
	Now    int    `json:"now"`
}

// DensityResponse carries per-region release counts at one timestep.
//
// Gen is the store's write generation for timestep t, read before the
// counts were computed — the cache-consistency token of the epoch/Gen
// contract (ARCHITECTURE.md). On a single node it is Gen(t); through
// the cluster router it is the sum of the per-node generations, which
// stays monotone exactly the way the sharded store's Gen sums per-shard
// counters. A repeated query whose Gen did not change saw identical
// data.
type DensityResponse struct {
	T      int    `json:"t"`
	Counts []int  `json:"counts"`
	Gen    uint64 `json:"gen"`
}

// DensitySeriesResponse carries per-region counts for each timestep in
// [t0, t1]. Epoch is the store's global write generation read before
// the series was computed (summed across nodes by the cluster router);
// see DensityResponse.Gen for the consistency semantics.
type DensitySeriesResponse struct {
	T0     int     `json:"t0"`
	T1     int     `json:"t1"`
	Series [][]int `json:"series"`
	Epoch  uint64  `json:"epoch"`
}

// ExposureResponse carries the infected-place exposure series. Epoch is
// the store's global write generation read before the series was
// computed (summed across nodes by the cluster router).
type ExposureResponse struct {
	T0       int    `json:"t0"`
	T1       int    `json:"t1"`
	Exposure []int  `json:"exposure"`
	Epoch    uint64 `json:"epoch"`
}

// CensusResponse tallies health codes across all known users. Epoch is
// the store's global write generation read before the tally was
// computed (summed across nodes by the cluster router) — the same
// counter the census cache itself is pinned to.
type CensusResponse struct {
	Census map[string]int `json:"census"`
	Window int            `json:"window"`
	Now    int            `json:"now"`
	Epoch  uint64         `json:"epoch"`
}

// HealthzResponse is the body of GET /v2/healthz — the uniform liveness
// probe of one server process. Status is "ok" or "failing"; a failing
// server also answers HTTP 503 so load balancers and the cluster
// router's probe can act on the status code alone. StoreError surfaces
// a durable store's append failure (the fail-stop condition);
// CompactError surfaces a non-fatal background-compaction failure (the
// log keeps growing until it recovers). Both are empty on memory-backed
// servers.
type HealthzResponse struct {
	Status       string `json:"status"`
	Records      int    `json:"records"`
	MaxT         int    `json:"max_t"`
	Epoch        uint64 `json:"epoch"`
	StoreError   string `json:"store_error,omitempty"`
	CompactError string `json:"compact_error,omitempty"`
}

// NodeStatus is one node's entry in the cluster router's healthz
// response: the ring identity plus the last probe's outcome.
type NodeStatus struct {
	Name       string `json:"name"`
	URL        string `json:"url"`
	Partitions []int  `json:"partitions"`
	Up         bool   `json:"up"`
	Error      string `json:"error,omitempty"`
	Records    int    `json:"records"`
	MaxT       int    `json:"max_t"`
	Epoch      uint64 `json:"epoch"`
}

// ClusterHealthzResponse is the body of GET /v2/healthz on the cluster
// router: per-node probe results plus the composite cluster epoch (the
// sum of reachable nodes' store epochs — monotone while the fleet is
// healthy, advisory while any node is down). Status is "ok" when every
// node is up, "degraded" otherwise (with HTTP 503).
type ClusterHealthzResponse struct {
	Status       string       `json:"status"`
	Partitions   int          `json:"partitions"`
	ClusterEpoch uint64       `json:"cluster_epoch"`
	Nodes        []NodeStatus `json:"nodes"`
}

// cursorPrefix versions the cursor encoding so a future format change
// can be detected rather than misparsed.
const cursorPrefix = "t:"

// EncodeCursor encodes the last-seen timestep into an opaque pagination
// cursor.
func EncodeCursor(lastT int) string {
	return base64.RawURLEncoding.EncodeToString([]byte(cursorPrefix + strconv.Itoa(lastT)))
}

// DecodeCursor decodes a cursor produced by EncodeCursor back into the
// last-seen timestep.
func DecodeCursor(s string) (int, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return 0, fmt.Errorf("wire: malformed cursor: %v", err)
	}
	rest, ok := strings.CutPrefix(string(raw), cursorPrefix)
	if !ok {
		return 0, errors.New("wire: unknown cursor format")
	}
	t, err := strconv.Atoi(rest)
	if err != nil {
		return 0, fmt.Errorf("wire: malformed cursor: %v", err)
	}
	return t, nil
}
