#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given flags (see bench/README.md). Run it from the repository root:
#
#   bash bench/run.sh --workload ingest-json --seed 1 --seconds 12 --trace 0
#
# Everything the Go toolchain and the benchmark write (build cache,
# binary, temp dirs) stays under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$(dirname "$0")" && go build -o "$out/panda-bench" .)
exec "$out/panda-bench" "$@"
