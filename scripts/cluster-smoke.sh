#!/usr/bin/env bash
# cluster-smoke.sh — end-to-end smoke of the real binaries: two
# panda-server processes pinned to a ring, panda-router in front, the
# commuter scenario driven through the router (reports, infection marks,
# exposure, records and analytics, scored for privacy), then a
# kill-one-node check that routing fails fast with a 503 naming the dead
# node (CLUSTER.md's failure table, exercised over real processes and
# ports).
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
  echo "cluster-smoke: FAIL: $*" >&2
  exit 1
}

wait_http() { # wait_http <url> — poll until anything answers on <url>
  for _ in $(seq 1 100); do
    if curl -s -o /dev/null "$1"; then return 0; fi
    sleep 0.1
  done
  fail "nothing answering at $1 after 10s"
}

echo "cluster-smoke: building binaries"
go build -o "$bindir" ./cmd/panda-server ./cmd/panda-router ./cmd/panda-bench

node0=127.0.0.1:18080
node1=127.0.0.1:18081
router=127.0.0.1:18090

cat > "$workdir/ring.json" <<EOF
{
  "partitions": 16,
  "nodes": [
    {"name": "node0", "url": "http://$node0", "partitions": [0,2,4,6,8,10,12,14]},
    {"name": "node1", "url": "http://$node1", "partitions": [1,3,5,7,9,11,13,15]}
  ]
}
EOF

echo "cluster-smoke: starting 2 nodes + router"
"$bindir/panda-server" -addr "$node0" -rows 32 -cols 32 -shards 4 \
  -data-dir "$workdir/node0" -cluster-ring "$workdir/ring.json" -cluster-node node0 &
pids+=($!)
"$bindir/panda-server" -addr "$node1" -rows 32 -cols 32 -shards 4 \
  -data-dir "$workdir/node1" -cluster-ring "$workdir/ring.json" -cluster-node node1 &
pids+=($!)
node1_pid=$!
wait_http "http://$node0/v2/healthz"
wait_http "http://$node1/v2/healthz"

# Both nodes pinned their ring slice next to the WAL MANIFEST.
for n in node0 node1; do
  grep -q "^node $n\$" "$workdir/$n/CLUSTER" || fail "$n ownership manifest not pinned"
done

"$bindir/panda-router" -addr "$router" -ring "$workdir/ring.json" -probe-interval 500ms &
pids+=($!)
wait_http "http://$router/v2/healthz"

report="$workdir/scenario.ndjson"
echo "cluster-smoke: running the commuter scenario through the router"
"$bindir/panda-bench" -load -lscenario commuter -seed 42 -url "http://$router" \
  -lusers 64 -lsteps 20 -lbatch 20 -lqueries 50 -lreport "$report" | tee "$workdir/bench.out"

rate=$(sed -n 's|.*(\([0-9][0-9]*\) releases/sec.*|\1|p' "$workdir/bench.out" | head -n 1)
[ -n "$rate" ] || fail "could not extract releases/sec from the bench output"

# Through the router, no stored release breaks its policy graph, the
# tracking error holds the scenario floor, and each user sent exactly one
# request per infection wave (a wave never spans more than the 20-release
# batch).
python3 - "$report" <<'EOF' || fail "score report checks failed"
import json, sys

with open(sys.argv[1]) as f:
    rep = json.load(f)

score, timing = rep["score"], rep["timing"]
adv = score["adversary"]
assert score["policy"]["checked"] > 0, score
assert score["policy"]["violations"] == 0, (
    f"{score['policy']['violations']} policy-graph violations stored")
assert adv["tracking_error"] >= adv["floor"], (
    f"PRIVACY REGRESSION: tracking error {adv['tracking_error']} "
    f"below scenario floor {adv['floor']}")
assert timing["ingest_requests"] == 64 * score["waves"], timing
EOF

# Healthy fleet: composite healthz is 200 ok over both nodes.
curl -fsS "http://$router/v2/healthz" > "$workdir/healthz.json"
grep -q '"status":"ok"' "$workdir/healthz.json" || fail "healthz not ok: $(cat "$workdir/healthz.json")"

# Kill node1 and prove fail-fast routing: a user on node1's partitions
# gets an immediate 503 naming the node, with a Retry-After hint; a
# scatter query refuses to undercount; node0's users are unaffected.
echo "cluster-smoke: killing node1"
kill "$node1_pid"
wait "$node1_pid" 2>/dev/null || true

code=$(curl -s -D "$workdir/hdrs" -o "$workdir/err.json" -w '%{http_code}' \
  "http://$router/v2/records?user=1")
[ "$code" = 503 ] || fail "user on dead node: got $code, want 503 ($(cat "$workdir/err.json"))"
grep -q '"code":"node_unavailable"' "$workdir/err.json" || fail "503 without node_unavailable: $(cat "$workdir/err.json")"
grep -q '"node":"node1"' "$workdir/err.json" || fail "503 does not name node1: $(cat "$workdir/err.json")"
grep -qi '^retry-after:' "$workdir/hdrs" || fail "503 without a Retry-After header"

code=$(curl -s -o "$workdir/err2.json" -w '%{http_code}' \
  "http://$router/v2/density?t=0&block_rows=8&block_cols=8")
[ "$code" = 503 ] || fail "scatter with a dead node: got $code, want 503"
grep -q '"node":"node1"' "$workdir/err2.json" || fail "scatter 503 does not name node1"

code=$(curl -s -o /dev/null -w '%{http_code}' "http://$router/v2/records?user=2")
[ "$code" = 200 ] || fail "user on the surviving node: got $code, want 200"

code=$(curl -s -o "$workdir/healthz2.json" -w '%{http_code}' "http://$router/v2/healthz")
[ "$code" = 503 ] || fail "degraded healthz: got $code, want 503"
grep -q '"status":"degraded"' "$workdir/healthz2.json" || fail "healthz not degraded: $(cat "$workdir/healthz2.json")"

echo "cluster-smoke: PASS (${rate} releases/sec through the router)"
