package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/pglp/panda/internal/scenario"
)

// TestLoadTargets runs a small commuter plan against each kind of
// in-process target -load boots and checks the score report: no stored
// release breaks its policy graph, and every user sent exactly one batch
// per infection wave (-lbatch covers the whole run, so a lost or
// duplicated batch shows in the count).
func TestLoadTargets(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  loadConfig
	}{
		{"memory-sync", loadConfig{}},
		{"durable-async", loadConfig{durable: true, dir: t.TempDir(), async: true}},
		{"cluster", loadConfig{cluster: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.scenario, cfg.seed = "commuter", 42
			cfg.users, cfg.steps, cfg.batch = 16, 20, 20
			cfg.queries, cfg.sample, cfg.stripes = 20, 4, 4
			cfg.report = filepath.Join(t.TempDir(), "score.ndjson")
			if err := runScenario(cfg); err != nil {
				t.Fatal(err)
			}
			line, err := os.ReadFile(cfg.report)
			if err != nil {
				t.Fatal(err)
			}
			var rep scenario.Report
			if err := json.Unmarshal(line, &rep); err != nil {
				t.Fatalf("score report: %v\n%s", err, line)
			}
			if rep.Config.Async != cfg.async || rep.Config.Cluster != cfg.cluster {
				t.Errorf("report config async=%v cluster=%d, want %v, %d",
					rep.Config.Async, rep.Config.Cluster, cfg.async, cfg.cluster)
			}
			if p := rep.Score.Policy; p.Checked == 0 || p.Violations != 0 {
				t.Errorf("policy audit: %d records checked, %d violations; want some checked and none violating",
					p.Checked, p.Violations)
			}
			if rep.Score.Waves == 0 {
				t.Fatal("plan has no infection waves")
			}
			if want := cfg.users * rep.Score.Waves; rep.Timing.IngestRequests != want {
				t.Errorf("ingest_requests = %d, want users x waves = %d", rep.Timing.IngestRequests, want)
			}
			if cfg.durable {
				if _, err := os.Stat(filepath.Join(cfg.dir, "MANIFEST")); err != nil {
					t.Errorf("durable target left no wal in -ldir: %v", err)
				}
			}
		})
	}
}
