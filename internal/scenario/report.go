package scenario

import (
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// Report is the machine-readable score of one scenario run — one NDJSON
// line, which scripts/scenario-smoke.sh and scripts/cluster-smoke.sh
// check.
//
// The reproducibility contract: for equal Config+RunConfig, everything
// except Timing is byte-identical across runs (Timing is measured
// wall-clock and cannot be). Canonical() zeroes Timing for comparisons;
// the golden determinism test pins the contract.
type Report struct {
	Bench    string       `json:"bench"` // always "scenario"
	Scenario string       `json:"scenario"`
	Config   ReportConfig `json:"config"`
	Score    Score        `json:"score"`
	Timing   Timing       `json:"timing"`
}

// ReportConfig echoes the configuration the score was measured under.
type ReportConfig struct {
	Seed      uint64  `json:"seed"`
	Users     int     `json:"users"`
	Steps     int     `json:"steps"`
	Batch     int     `json:"batch"`
	Queries   int     `json:"queries"`
	Sample    int     `json:"sample"`
	Cluster   int     `json:"cluster"`
	Async     bool    `json:"async"`
	Binary    bool    `json:"binary"`
	Grid      string  `json:"grid"`
	Mechanism string  `json:"mechanism"`
	Epsilon   float64 `json:"epsilon"`
}

// Score is the deterministic part of the report: privacy, policy,
// cache, and utility metrics computed over what the server stored.
type Score struct {
	TraceDigest    string         `json:"trace_digest"`
	ReleaseDigest  string         `json:"release_digest"`
	Waves          int            `json:"waves"`
	InfectedCells  int            `json:"infected_cells"`
	PolicyVersions int            `json:"policy_versions"`
	Adversary      AdversaryScore `json:"adversary"`
	Policy         PolicyScore    `json:"policy"`
	Cache          CacheScore     `json:"cache"`
	Utility        UtilityScore   `json:"utility"`
}

// AdversaryScore is the tracking attack replayed over stored records.
type AdversaryScore struct {
	SampledUsers int `json:"sampled_users"`
	// TrackingError is the mean Euclidean error (grid units) of the
	// Viterbi-decoded trajectory against ground truth.
	TrackingError float64 `json:"tracking_error"`
	// ExactRate is the fraction of timesteps the Viterbi decode named
	// the exact truth cell.
	ExactRate float64 `json:"exact_rate"`
	// TopKRate is the fraction of timesteps the truth cell was inside
	// the forward filter's top-K belief set.
	TopK     int     `json:"top_k"`
	TopKRate float64 `json:"top_k_rate"`
	// Floor is the scenario's minimum expected tracking error — the CI
	// regression gate (measured error below it means a privacy leak).
	Floor float64 `json:"floor"`
}

// PolicyScore counts {ε,G}-policy conformance over stored records.
type PolicyScore struct {
	// Checked is how many stored records were checked (sampled users x
	// timesteps).
	Checked int `json:"checked"`
	// Violations counts records that exactly disclosed a truth cell
	// the record's policy-graph version still protects (degree > 0).
	Violations int `json:"violations"`
	// ExactDisclosures counts exact releases of unprotected (isolated)
	// cells — the intended behavior for infected places, not a
	// violation.
	ExactDisclosures int `json:"exact_disclosures"`
}

// CacheScore is the analytics engine's hit/miss delta over the query
// phase (summed across nodes in cluster mode).
type CacheScore struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// UtilityScore measures how useful the stored (perturbed) data remains:
// the normalized L1 distance between released and true per-region
// density over the scored timesteps, in [0, 1] (0 = identical).
type UtilityScore struct {
	DensityL1 float64 `json:"density_l1"`
	Timesteps int     `json:"timesteps"`
}

// Timing is the wall-clock half of the report: latency percentiles and
// rates. Non-deterministic by nature; excluded from Canonical().
type Timing struct {
	WarmupMS       float64 `json:"warmup_ms"`
	IngestRequests int     `json:"ingest_requests"`
	IngestP50MS    float64 `json:"ingest_p50_ms"`
	IngestP90MS    float64 `json:"ingest_p90_ms"`
	IngestP99MS    float64 `json:"ingest_p99_ms"`
	ReleasesPerSec float64 `json:"releases_per_sec"`
	RenegP99MS     float64 `json:"reneg_p99_ms"`
	DrainMS        float64 `json:"drain_ms"`
	QueryRequests  int     `json:"query_requests"`
	QueryP50MS     float64 `json:"query_p50_ms"`
	QueryP99MS     float64 `json:"query_p99_ms"`
	TotalMS        float64 `json:"total_ms"`
}

// Canonical returns the report with Timing zeroed — the deterministic
// form two equal-seed runs must agree on byte-for-byte.
func (r Report) Canonical() Report {
	r.Timing = Timing{}
	return r
}

// NDJSON renders the report as one newline-terminated JSON line.
func (r Report) NDJSON() ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// latencies collects per-request durations concurrently.
type latencies struct {
	mu sync.Mutex
	ds []time.Duration
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ds = append(l.ds, d)
	l.mu.Unlock()
}

func (l *latencies) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ds)
}

// percentiles returns p50/p90/p99 in milliseconds.
func (l *latencies) percentiles() (p50, p90, p99 float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ds) == 0 {
		return 0, 0, 0
	}
	sort.Slice(l.ds, func(i, j int) bool { return l.ds[i] < l.ds[j] })
	at := func(q float64) float64 {
		i := int(q * float64(len(l.ds)))
		if i >= len(l.ds) {
			i = len(l.ds) - 1
		}
		return float64(l.ds[i]) / float64(time.Millisecond)
	}
	return at(0.50), at(0.90), at(0.99)
}
