// Command panda-bench regenerates every evaluation artifact of the PANDA
// paper: the utility, epidemic-analysis, contact-tracing, empirical-
// privacy, random-policy-graph, theorem-validation, system-pipeline,
// budget-utilisation, temporal-correlation, dataset-sensitivity and
// road-network experiments (E1–E11). Each RunEx function in
// internal/experiments says what it measures and the shape its table is
// expected to show.
//
// Usage:
//
//	panda-bench               # run everything at paper scale
//	panda-bench -exp E1,E4    # selected experiments
//	panda-bench -quick        # miniature configuration (CI smoke)
//
// -load instead streams a city-scale scenario (internal/scenario)
// through the /v2 client against a live server and scores utility,
// privacy and speed in one run: road-constrained mobility with
// SEIR-driven infection waves that bump the policy version mid-run;
// ingest, ack and renegotiation latency percentiles; analytics cache
// hits under the scenario's spatial skew; the adversary's tracking error
// over what the server actually stored; and policy-graph violation
// counts. -lscenario picks the city (commuter by default, superspreader
// or lockdown). The score is deterministic under -seed (see API.md for
// the reproducibility contract); -lreport writes the NDJSON score report.
//
//	panda-bench -load                              # commuter, in-process server
//	panda-bench -load -lscenario lockdown -seed 42
//	panda-bench -load -url http://host:8080        # against a running server or router
//	panda-bench -load -lusers 500 -lsteps 200 -lbatch 50 -lqueries 2000
//
// The in-process target can back each node with the durable wal
// (-ldurable; -lfsync fsyncs every append, -ldir picks the directory,
// -lstripes sets the stripe count), and can run as N nodes behind an
// in-process cluster router (-lcluster N, one wal per node). -lasync
// reports through the async ingestion queue, so the ingest percentiles
// measure 202 ack latency; -lbinary reports in the binary record format
// (application/x-panda-records). Every combination runs the same plan:
//
//	panda-bench -load -ldurable -lfsync            # sync durable ingest
//	panda-bench -load -ldurable -lfsync -lasync    # async acks over the same wal
//	panda-bench -load -lcluster 4 -ldurable -lasync -lbinary -lreport scenario.ndjson
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/pglp/panda/internal/experiments"
)

func main() {
	var (
		expList = flag.String("exp", "all", "comma-separated experiment IDs (E1..E11) or 'all'")
		quick   = flag.Bool("quick", false, "use the miniature configuration")
		seed    = flag.Uint64("seed", 0, "override the experiment seed (0 keeps the default); with -load, the scenario seed")
		users   = flag.Int("users", 0, "override the number of users (0 keeps the default)")
		steps   = flag.Int("steps", 0, "override the trajectory length (0 keeps the default)")

		load      = flag.Bool("load", false, "run a scored city-scale scenario against a live server instead of the experiments")
		lScenario = flag.String("lscenario", "commuter", "load: the scenario to run and score (commuter, superspreader, lockdown)")
		loadURL   = flag.String("url", "", "load: base URL of a running server (empty = in-process)")
		lUsers    = flag.Int("lusers", 200, "load: simulated users")
		lSteps    = flag.Int("lsteps", 100, "load: releases per user")
		lBatch    = flag.Int("lbatch", 25, "load: releases per batch request")
		lQueries  = flag.Int("lqueries", 1000, "load: analytics queries in the repeat (cache-hit) phase")
		lSample   = flag.Int("lsample", 8, "load: users the adversary replays against stored records")
		lReport   = flag.String("lreport", "", "load: write the NDJSON score report to this path (empty = print to stdout)")
		lDurable  = flag.Bool("ldurable", false, "load: back the in-process server with the WAL store")
		lDir      = flag.String("ldir", "", "load: WAL directory for -ldurable (empty = fresh temp dir)")
		lFsync    = flag.Bool("lfsync", false, "load: with -ldurable, fsync every append instead of buffering")
		lStripes  = flag.Int("lstripes", 16, "load: WAL stripes / store shards of each in-process node")
		lAsync    = flag.Bool("lasync", false, "load: report via async ingestion (202 early acks, background drain)")
		lBinary   = flag.Bool("lbinary", false, "load: report in the binary record format")
		lCluster  = flag.Int("lcluster", 0, "load: run N in-process nodes behind an in-process cluster router (0 = single server)")
	)
	flag.Parse()

	if *load {
		cfg := loadConfig{
			scenario: *lScenario, seed: *seed, users: *lUsers, steps: *lSteps, batch: *lBatch,
			queries: *lQueries, sample: *lSample, report: *lReport,
			url: *loadURL, durable: *lDurable, dir: *lDir, fsync: *lFsync, stripes: *lStripes,
			async: *lAsync, binary: *lBinary, cluster: *lCluster,
		}
		if cfg.users < 1 || cfg.steps < 1 || cfg.batch < 1 || cfg.queries < 1 || cfg.sample < 1 || cfg.stripes < 1 {
			fmt.Fprintln(os.Stderr, "panda-bench: -lusers, -lsteps, -lbatch, -lqueries, -lsample, -lstripes must be >= 1")
			os.Exit(2)
		}
		if cfg.cluster < 0 {
			fmt.Fprintln(os.Stderr, "panda-bench: -lcluster must be >= 0")
			os.Exit(2)
		}
		if cfg.url != "" && (cfg.cluster > 0 || cfg.durable) {
			fmt.Fprintln(os.Stderr, "panda-bench: -lcluster and -ldurable build in-process targets (drop -url)")
			os.Exit(2)
		}
		if err := runScenario(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "panda-bench: load: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *users > 0 {
		cfg.Users = *users
	}
	if *steps > 0 {
		cfg.Steps = *steps
	}

	runners := map[string]func(experiments.Config) (*experiments.Table, error){
		"E1":  experiments.RunE1,
		"E2":  experiments.RunE2,
		"E3":  experiments.RunE3,
		"E4":  experiments.RunE4,
		"E5":  experiments.RunE5,
		"E6":  experiments.RunE6,
		"E7":  experiments.RunE7,
		"E8":  experiments.RunE8,
		"E9":  experiments.RunE9,
		"E10": experiments.RunE10,
		"E11": experiments.RunE11,
	}
	order := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11"}

	selected := order
	if *expList != "all" {
		selected = nil
		for _, id := range strings.Split(*expList, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			if _, ok := runners[id]; !ok {
				fmt.Fprintf(os.Stderr, "panda-bench: unknown experiment %q (want E1..E11)\n", id)
				os.Exit(2)
			}
			selected = append(selected, id)
		}
	}

	for _, id := range selected {
		table, err := runners[id](cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "panda-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		if err := table.Print(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "panda-bench: printing %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
