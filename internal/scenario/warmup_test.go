package scenario

import (
	"context"
	"net/http"
	"sync"
	"testing"
)

// phaseCountingTransport counts policy head fetches and graph downloads
// (GET /v2/policy?graph=1) by run phase, so the test can see exactly
// which HTTP traffic falls inside the measured ingest window.
type phaseCountingTransport struct {
	base http.RoundTripper

	mu         sync.Mutex
	phase      string
	policyGETs map[string]int
	downloads  map[string]int
}

func (tr *phaseCountingTransport) setPhase(p string) {
	tr.mu.Lock()
	tr.phase = p
	tr.mu.Unlock()
}

func (tr *phaseCountingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodGet && req.URL.Path == "/v2/policy" {
		tr.mu.Lock()
		if req.URL.Query().Get("graph") == "1" {
			tr.downloads[tr.phase]++
		} else {
			tr.policyGETs[tr.phase]++
		}
		tr.mu.Unlock()
	}
	return tr.base.RoundTrip(req)
}

// TestWarmupExcludesPolicyStorm is the regression gate for the measured
// window: every per-user policy fetch happens in the warmup (or the
// explicit renegotiation) phase, never inside the timed ingest loop —
// so the reported p99 measures ingest, not a first-contact policy-fetch
// storm. The client downloads each distinct graph once, however many
// of the runner's workers miss on it at the same time: one download in
// the warmup and one per renegotiation wave, beside one head fetch per
// user. It also pins the sample count: the ingest percentiles are
// computed over exactly the expected batch requests, nothing more.
func TestWarmupExcludesPolicyStorm(t *testing.T) {
	const (
		users = 30
		steps = 48
		batch = 10
	)
	gen, _ := Lookup("commuter")
	plan, err := gen.Plan(Config{Users: users, Steps: steps, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	base, _ := startTestServer(t, false)
	tr := &phaseCountingTransport{base: http.DefaultTransport, policyGETs: map[string]int{}, downloads: map[string]int{}}
	rep, err := Run(context.Background(), plan, RunConfig{
		BaseURL: base,
		HTTP:    &http.Client{Transport: tr},
		Batch:   batch,
		Queries: 20,
		Sample:  4,
		OnPhase: tr.setPhase,
	})
	if err != nil {
		t.Fatal(err)
	}

	tr.mu.Lock()
	defer tr.mu.Unlock()
	if got, dl := tr.policyGETs["ingest"], tr.downloads["ingest"]; got+dl != 0 {
		t.Errorf("%d policy fetches and %d graph downloads inside the measured ingest window, want 0 (by phase: %v, %v)",
			got, dl, tr.policyGETs, tr.downloads)
	}
	if got := tr.policyGETs["warmup"]; got != users {
		t.Errorf("warmup fetched %d policies, want one per user (%d)", got, users)
	}
	if got := tr.downloads["warmup"]; got != 1 {
		t.Errorf("warmup downloaded %d graphs, want 1 (every user holds the base graph)", got)
	}
	// Each renegotiation wave that infects a new cell makes one new graph.
	renegotiations, graphs := 0, 0
	infected := map[int]bool{}
	for _, w := range plan.Waves {
		if len(w.Infect) == 0 {
			continue
		}
		renegotiations++
		fresh := false
		for _, c := range w.Infect {
			if c >= 0 && c < plan.Grid.NumCells() && !infected[c] {
				infected[c], fresh = true, true
			}
		}
		if fresh {
			graphs++
		}
	}
	if renegotiations == 0 {
		t.Fatal("the plan has no infection wave; the renegotiation counts check nothing")
	}
	if got, want := tr.policyGETs["renegotiate"], renegotiations*users; got != want {
		t.Errorf("renegotiation fetched %d policies, want %d", got, want)
	}
	if got := tr.downloads["renegotiate"]; got != graphs {
		t.Errorf("renegotiation downloaded %d graphs, want %d (one per new graph)", got, graphs)
	}

	// The percentile sample set is exactly the batch requests.
	wantBatches := 0
	for _, w := range plan.Waves {
		wantBatches += users * ((w.End - w.Start + batch - 1) / batch)
	}
	if rep.Timing.IngestRequests != wantBatches {
		t.Errorf("ingest percentiles over %d requests, want exactly %d batches",
			rep.Timing.IngestRequests, wantBatches)
	}
}
