#!/usr/bin/env sh
# check-docs.sh — two documentation gates:
#
#  1. every internal/... package has a package comment (a contiguous
#     // block immediately above its `package` clause in some non-test
#     .go file; by convention it lives in doc.go);
#  2. every exported symbol of the storage packages (the crash-safety
#     surface: internal/server/storage and its wal and storagetest
#     subpackages), the lint packages, the wire and ingest packages
#     (the report path's contracts), the node's public surface (the
#     root panda facade, internal/server and internal/server/analytics),
#     the policy surface (internal/policy and internal/policygraph),
#     the privacy engine (internal/core and internal/mechanism) and the
#     paper's experiments (internal/experiments) has a doc comment —
#     exported funcs, types, and methods on exported receivers must
#     state their contract, because callers reason from godoc, not from
#     the source.
#
# Run from the repository root:  ./scripts/check-docs.sh
set -eu

fail=0
for dir in $(find internal -type d); do
    # A package is a directory with at least one non-test .go file.
    has_go=0
    documented=0
    for f in "$dir"/*.go; do
        [ -e "$f" ] || continue
        case "$f" in *_test.go) continue ;; esac
        has_go=1
        # "a // line immediately before the package clause" == the line
        # preceding the first `package ` line starts with //.
        if awk '
            /^package / { exit (prev ~ /^\/\//) ? 0 : 1 }
            { prev = $0 }
        ' "$f"; then
            documented=1
            break
        fi
    done
    if [ "$has_go" -eq 1 ] && [ "$documented" -eq 0 ]; then
        echo "missing package comment: $dir" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "doc check failed: every internal/... package needs a package comment (see ARCHITECTURE.md)" >&2
    exit 1
fi
echo "doc check: every internal package has a package comment"

# Gate 2: exported-symbol comments in the storage packages (the
# crash-safety surface), the lint packages (the enforcement surface:
# an analyzer whose contract is undocumented cannot be trusted or
# extended, see internal/lint/README.md), and the wire and ingest
# packages (the contracts of POST /v2/reports: the body encodings, the
# envelope, the ingest queue), and the node's public surface (the panda
# facade that builds and stops a node, the DB, handlers and client of
# internal/server, and the analytics engine), and the policy packages
# (the server writes the manager's stored graph encoding into responses
# without checking it, so its contract must be written down), and the
# privacy engine (the mechanisms every release goes through and the
# verifier that checks them against a policy), and the experiments
# package (its Config states which budgets and ε the experiments can
# run, and Validate enforces them). A decl
# line counts as documented when the line above it is a // comment.
# Checked: top-level `func Name`, `type Name`, and `func (r *Recv) Name`
# where the receiver type is exported; methods on unexported types are
# internal plumbing and exempt.
lint_pkgs="internal/lint $(find internal/lint -mindepth 1 -maxdepth 1 -type d | sort)"
storage_pkgs="internal/server/storage internal/server/storage/wal internal/server/storage/storagetest"
report_pkgs="internal/server/wire internal/server/ingest"
node_pkgs=". internal/server internal/server/analytics"
policy_pkgs="internal/policy internal/policygraph"
privacy_pkgs="internal/core internal/mechanism"
experiment_pkgs="internal/experiments"
for dir in $storage_pkgs $lint_pkgs $report_pkgs $node_pkgs $policy_pkgs $privacy_pkgs $experiment_pkgs; do
    for f in "$dir"/*.go; do
        [ -e "$f" ] || continue
        case "$f" in *_test.go) continue ;; esac
        awk -v file="$f" '
            /^func [A-Z]/ || /^type [A-Z]/ {
                if (prev !~ /^\/\//) {
                    printf "missing doc comment: %s: %s\n", file, $0
                    bad = 1
                }
            }
            /^func \(/ {
                # method: func (r *Recv) Name(... — gate only exported
                # Name on exported Recv.
                recv = $3; sub(/^\*/, "", recv); sub(/\)$/, "", recv)
                name = $4
                if (recv ~ /^[A-Z]/ && name ~ /^[A-Z]/ && prev !~ /^\/\//) {
                    printf "missing doc comment: %s: %s\n", file, $0
                    bad = 1
                }
            }
            { prev = $0 }
            END { exit bad }
        ' "$f" >&2 || fail=1
    done
done

if [ "$fail" -ne 0 ]; then
    echo "doc check failed: exported storage/lint/wire/ingest/node/policy/privacy/experiments symbols need doc comments stating their contract" >&2
    exit 1
fi
echo "doc check: every exported storage, lint, wire, ingest, node, policy, privacy and experiments symbol has a doc comment"
