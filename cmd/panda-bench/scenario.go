package main

import (
	"context"
	"fmt"
	"net/http"
	"os"

	"github.com/pglp/panda/internal/scenario"
)

// runScenario resolves the generator, boots the target, runs the plan,
// and emits both the human summary and the NDJSON score report.
func runScenario(cfg loadConfig) error {
	gen, err := scenario.Lookup(cfg.scenario)
	if err != nil {
		return err
	}
	plan, err := gen.Plan(scenario.Config{Users: cfg.users, Steps: cfg.steps, Seed: cfg.seed})
	if err != nil {
		return err
	}
	fmt.Printf("scenario: %s — %s\n", gen.Name(), gen.Describe())

	base, cleanup, err := startLoadTarget(cfg)
	if err != nil {
		return err
	}
	defer cleanup()

	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 128}}
	rep, err := scenario.Run(context.Background(), plan, scenario.RunConfig{
		BaseURL: base,
		HTTP:    hc,
		Batch:   cfg.batch,
		Queries: cfg.queries,
		Sample:  cfg.sample,
		Async:   cfg.async,
		Binary:  cfg.binary,
		Cluster: cfg.cluster,
		Out:     os.Stdout,
	})
	if err != nil {
		return err
	}
	printScenarioReport(rep)
	line, err := rep.NDJSON()
	if err != nil {
		return err
	}
	if cfg.report != "" {
		if err := os.WriteFile(cfg.report, line, 0o644); err != nil {
			return fmt.Errorf("writing -lreport: %w", err)
		}
		fmt.Printf("scenario: score report written to %s\n", cfg.report)
	} else {
		os.Stdout.Write(line)
	}
	return nil
}

// printScenarioReport renders the human-readable summary of a run.
func printScenarioReport(rep *scenario.Report) {
	s, tm := rep.Score, rep.Timing
	fmt.Printf("scenario %s: %d users x %d steps, seed %d, %d waves, %d infected cells, %d policy versions\n",
		rep.Scenario, rep.Config.Users, rep.Config.Steps, rep.Config.Seed,
		s.Waves, s.InfectedCells, s.PolicyVersions)
	fmt.Printf("  ingest     %d requests  p50 %.2fms p90 %.2fms p99 %.2fms (%.0f releases/sec, warmup %.0fms untimed)\n",
		tm.IngestRequests, tm.IngestP50MS, tm.IngestP90MS, tm.IngestP99MS, tm.ReleasesPerSec, tm.WarmupMS)
	if tm.DrainMS > 0 {
		fmt.Printf("  drain      queue empty after %.0fms\n", tm.DrainMS)
	}
	fmt.Printf("  queries    %d requests  p50 %.2fms p99 %.2fms; cache %d hits / %d misses (%.1f%% hit rate)\n",
		tm.QueryRequests, tm.QueryP50MS, tm.QueryP99MS, s.Cache.Hits, s.Cache.Misses, 100*s.Cache.HitRate)
	fmt.Printf("  adversary  tracking error %.3f (floor %.2f), exact %.1f%%, top-%d %.1f%% over %d sampled users\n",
		s.Adversary.TrackingError, s.Adversary.Floor, 100*s.Adversary.ExactRate,
		s.Adversary.TopK, 100*s.Adversary.TopKRate, s.Adversary.SampledUsers)
	fmt.Printf("  policy     %d records checked, %d violations, %d exact disclosures of isolated cells\n",
		s.Policy.Checked, s.Policy.Violations, s.Policy.ExactDisclosures)
	fmt.Printf("  utility    density L1 %.4f over %d timesteps\n", s.Utility.DensityL1, s.Utility.Timesteps)
	fmt.Printf("  digests    trace %s, releases %s\n", s.TraceDigest, s.ReleaseDigest)
}
