// Command bench is the repository benchmark. It runs one workload
// against an in-process PANDA server, built from the same public
// constructors panda-server uses and served over loopback HTTP, checks
// what the server stored, and prints one JSON object on the last line
// of standard output: the workload's end-to-end metrics, or with
// -trace 1 its per-layer metrics from a traced run.
//
//	bench -workload ingest-json -seed 1 -seconds 12 -trace 0
//	bench -compare base.jsonl head.jsonl
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	if os.Getenv(referenceEnv) != "" {
		os.Exit(referenceMain(os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the benchmark's output contract: the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one line of an -out file: a result tagged with what ran.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 12, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 runs traced and prints per-layer metrics; 0 prints end-to-end metrics")
	out := fs.String("out", "", "also append the result, tagged with workload and seed, to this JSON-lines file")
	spans := fs.String("spans", "", "with -trace 1, write every recorded span to this JSON-lines file")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments: base, then head")
	bounds := fs.String("benchmark", "BENCHMARK.json", "file holding the metric bounds -compare applies")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files: base, then head")
			return 2
		}
		if err := compareFiles(stdout, *bounds, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, sizes: w.sizes, log: stderr, refRequests: refRequests}
	res, tr, err := execute(w, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		if err := appendRecord(*out, record{Workload: *name, Seed: *seed, Trace: *trace, Result: res}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *spans != "" && tr != nil {
		if err := tr.writeSpans(*spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(line, '\n'))
	return errors.Join(werr, f.Close())
}

// metricDef names one reported metric and its unit. The tables below
// must list the same metrics as BENCHMARK.json; the self-test checks it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; README.md says what each means on each
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"capacity_per_s", "1/s"},
	{"ack_p50_ms", "ms"},
	{"op_p50_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"heap_mb", "MB"},
}

// perLayer are the traced run's metrics, one group per layer. A metric
// that a workload's traffic never reaches reads 0.
var perLayer = []metricDef{
	{"loadgen.ack_p99_ms", "ms"},
	{"loadgen.op_p99_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.queue_wait_p99_ms", "ms"},
	{"loadgen.backlog_end", "count"},
	{"mechanism.build_ms", "ms"},
	{"mechanism.builds", "count"},
	{"mechanism.release_us", "us"},
	{"client.report_p50_ms", "ms"},
	{"client.report_p99_ms", "ms"},
	{"client.overhead_p50_ms", "ms"},
	{"client.policy_p50_ms", "ms"},
	{"client.status_409", "count"},
	{"client.status_429", "count"},
	{"server.reports_p50_ms", "ms"},
	{"server.reports_p99_ms", "ms"},
	{"server.reports_self_p50_ms", "ms"},
	{"server.policy_p50_ms", "ms"},
	{"server.policy_p99_ms", "ms"},
	{"server.infected_ms", "ms"},
	{"server.density_p50_ms", "ms"},
	{"server.density_p99_ms", "ms"},
	{"server.series_p50_ms", "ms"},
	{"server.series_p99_ms", "ms"},
	{"server.exposure_p50_ms", "ms"},
	{"server.exposure_p99_ms", "ms"},
	{"server.census_p50_ms", "ms"},
	{"server.census_p99_ms", "ms"},
	{"server.healthcode_p50_ms", "ms"},
	{"server.healthcode_p99_ms", "ms"},
	{"server.inflight_max", "count"},
	{"policy.users", "count"},
	{"policy.version_end", "count"},
	{"ingest.depth_max", "count"},
	{"ingest.lag_p99_ms", "ms"},
	{"ingest.rejected", "count"},
	{"ingest.drain_ms", "ms"},
	{"storage.insert_p50_us", "us"},
	{"storage.insert_p99_us", "us"},
	{"storage.insert_calls", "count"},
	{"storage.records_per_insert", "count"},
	{"storage.scan_p50_us", "us"},
	{"storage.scan_p99_us", "us"},
	{"storage.scan_calls", "count"},
	{"storage.records_per_scan", "count"},
	{"wal.disk_bytes_per_record", "B"},
	{"wal.compactions", "count"},
	{"wal.garbage", "count"},
	{"wal.reopen_ms", "ms"},
	{"analytics.hits", "count"},
	{"analytics.misses", "count"},
	{"analytics.hit_ratio", "ratio"},
	{"analytics.entries", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.mallocs_per_op", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.unattributed_frac", "ratio"},
	{"reference.wall_speed", "ratio"},
	{"reference.cpu_speed", "ratio"},
}
