#!/usr/bin/env bash
# scenario-smoke.sh — end-to-end smoke of the scenario harness over the
# real binaries: one panda-server process on the scenario grid, then
# `panda-bench -load -lscenario commuter` streaming 1k users x 50 steps
# through the /v2 client against it. Asserts the NDJSON score report
# parses, the adversary tracking error stays above the scenario's floor
# (the privacy regression gate), no policy-graph violations were stored,
# and the per-seed digests are present.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
bindir="$workdir/bin"
mkdir -p "$bindir"
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  for pid in "${pids[@]:-}"; do wait "$pid" 2>/dev/null || true; done
  rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
  echo "scenario-smoke: FAIL: $*" >&2
  exit 1
}

wait_http() { # wait_http <url> — poll until anything answers on <url>
  for _ in $(seq 1 100); do
    if curl -s -o /dev/null "$1"; then return 0; fi
    sleep 0.1
  done
  fail "nothing answering at $1 after 10s"
}

echo "scenario-smoke: building binaries"
go build -o "$bindir" ./cmd/panda-server ./cmd/panda-bench

server=127.0.0.1:18070
echo "scenario-smoke: starting panda-server on the 32x32 scenario grid"
"$bindir/panda-server" -addr "$server" -rows 32 -cols 32 -shards 8 -async-ingest &
pids+=($!)
wait_http "http://$server/v2/healthz"

report="$workdir/scenario.ndjson"
echo "scenario-smoke: running the commuter scenario (1k users x 50 steps)"
"$bindir/panda-bench" -load -lscenario commuter -seed 42 -url "http://$server" \
  -lusers 1000 -lsteps 50 -lbatch 25 -lqueries 100 -lasync -lreport "$report" \
  | tee "$workdir/bench.out"

[ -s "$report" ] || fail "no score report at $report"
[ "$(wc -l < "$report")" = 1 ] || fail "score report is not one NDJSON line"

# The report must parse, carry all three metric families, keep the
# measured tracking error above the scenario floor, and store zero
# policy-graph violations.
python3 - "$report" <<'EOF' || fail "score report checks failed"
import json, sys

with open(sys.argv[1]) as f:
    rep = json.load(f)

assert rep["bench"] == "scenario" and rep["scenario"] == "commuter", rep
score, timing = rep["score"], rep["timing"]
adv = score["adversary"]
assert adv["floor"] > 0, adv
assert adv["tracking_error"] >= adv["floor"], (
    f"PRIVACY REGRESSION: tracking error {adv['tracking_error']} "
    f"below scenario floor {adv['floor']}")
assert score["policy"]["checked"] > 0, score
assert score["policy"]["violations"] == 0, (
    f"{score['policy']['violations']} policy-graph violations stored")
assert score["cache"]["hits"] > 0 and score["cache"]["misses"] > 0, score
assert 0 <= score["utility"]["density_l1"] <= 1, score
# 1000 users x 4 waves x ceil(~12.5-step wave / 25-per-batch) = 4000.
assert timing["ingest_requests"] == 1000 * score["waves"], timing
assert len(score["trace_digest"]) == 16 and len(score["release_digest"]) == 16, score
print(f"scenario-smoke: tracking error {adv['tracking_error']:.3f} "
      f"(floor {adv['floor']}), {score['policy']['violations']} violations, "
      f"cache hit rate {score['cache']['hit_rate']:.2f}")
EOF

echo "scenario-smoke: PASS"
