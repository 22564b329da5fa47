#!/usr/bin/env sh
# Extended verification gate. Tier-1 CI only requires
#   go build ./... && go test ./...
# This script layers the repo-specific static analysis (cmd/bbvet), the
# stock vet pass, the race detector, and the bbdebug invariant-checking
# build of the scheduling engine on top. Run it before merging anything
# that touches the search or scheduling layers.
#
# Usage: scripts/check.sh [package patterns...]   (default: ./...)
#        scripts/check.sh dist
#        scripts/check.sh grid
#        scripts/check.sh hetero
#        scripts/check.sh vet
#
# The dist form gates the distributed fabric alone: race-enabled
# internal/dist tests (frontier equivalence, steal/evict robustness,
# journal resume, drain, speculative re-dispatch) plus the race-enabled
# loopback multi-process e2e (re-exec'd coordinator, real bbworker
# processes, a SIGKILL'd worker recovered through lease eviction, and a
# SIGKILL'd coordinator resumed from its checkpoint journal with
# byte-identical results).
#
# The grid form gates the multi-tenant serving tier alone: race-enabled
# internal/grid tests (ring balance and minimal movement, WFQ fairness,
# single-flight fill claims), the race-enabled in-process multi-replica
# e2e in internal/server (a replica killed mid-load with survivors
# re-owning its key range, batch isomorphism dedup, tenant isolation),
# and the race-enabled CLI e2e (two peered bbserved processes with
# tenant classes and zero-leak shutdown; bbload mixed-workload mode).
#
# The hetero form gates the heterogeneous/partitioned scenario matrix
# alone: race-enabled internal/hetero and internal/edf tests (the
# partitioned search and its dispatch policy), the race-enabled
# scenario-matrix server tests (structured platform 400s, partitioned
# mode, cache continuity), and the bbfuzz cross-validation campaign —
# global and partitioned solves on random speed-factor/affinity
# platforms against their brute-force oracles, plus the bit-identical
# legacy leg for explicit unit/universal specs.
#
# The vet form is the static-analysis contract: gofmt (any file that
# `gofmt -l .` lists fails the gate), the full bbvet suite
# (per-package analyzers plus the whole-program lockorder, goleak,
# hotalloc, and wireschema passes) over the whole module under the
# strict baseline — any finding not recorded in
# internal/check/testdata/bbvet.baseline fails, and so does any stale
# baseline entry, hotalloc.allow entry, or wireschema.snap drift — a
# `go vet` of the nested benchmark module cmd/bbperf, which the root
# build and vet do not compile, so an internal API change that breaks the
# benchmark fails here rather than when the benchmark runs — a quick
# smoke run of the benchmark itself (`bash cmd/bbperf/bench.sh --quick`,
# which builds it as the benchmark does and checks every answer of all
# five workloads against the committed catalog, so a wrong answer or a
# broken benchmark build fails here first) — three
# 10-second native fuzz runs over their committed seed corpora
# (testdata/fuzz in each package): taskgraph.Canonical, the one-pass graph
# decoder against encoding/json (FuzzGraphJSON), and the one-pass request
# decoder against encoding/json plus the validation and keying pipeline
# (FuzzSolveRequest) — plus the race and bbdebug builds of the
# concurrency-bearing layers.

set -eu

cd "$(dirname "$0")/.."

if [ "${1:-}" = "dist" ]; then
    echo "==> go vet ./internal/dist ./cmd/bbworker"
    go vet ./internal/dist ./cmd/bbworker
    echo "==> bbvet ./internal/dist ./cmd/bbworker"
    go run ./cmd/bbvet ./internal/dist ./cmd/bbworker
    echo "==> go test -race ./internal/dist"
    go test -race ./internal/dist
    echo "==> go test -race ./cmd/bbworker (loopback multi-process e2e, incl. crash-resume)"
    go test -race ./cmd/bbworker
    echo "==> dist checks passed"
    exit 0
fi

if [ "${1:-}" = "grid" ]; then
    echo "==> go vet ./internal/grid ./internal/peer ./cmd/bbserved ./cmd/bbload"
    go vet ./internal/grid ./internal/peer ./cmd/bbserved ./cmd/bbload
    echo "==> bbvet ./internal/grid ./internal/peer ./cmd/bbserved ./cmd/bbload"
    go run ./cmd/bbvet ./internal/grid ./internal/peer ./cmd/bbserved ./cmd/bbload
    echo "==> go test -race ./internal/grid ./internal/peer"
    go test -race ./internal/grid ./internal/peer
    echo "==> go test -race ./internal/server (incl. multi-replica kill-mid-load e2e)"
    go test -race ./internal/server
    echo "==> go test -race ./cmd/bbserved ./cmd/bbload (peered-process e2e, mixed-workload harness)"
    go test -race ./cmd/bbserved ./cmd/bbload
    echo "==> grid checks passed"
    exit 0
fi

if [ "${1:-}" = "hetero" ]; then
    echo "==> go vet ./internal/hetero ./internal/edf ./internal/fuzzcheck ./cmd/bbfuzz"
    go vet ./internal/hetero ./internal/edf ./internal/fuzzcheck ./cmd/bbfuzz
    echo "==> bbvet ./internal/hetero ./internal/edf ./internal/fuzzcheck ./cmd/bbfuzz"
    go run ./cmd/bbvet ./internal/hetero ./internal/edf ./internal/fuzzcheck ./cmd/bbfuzz
    echo "==> go test -race ./internal/hetero ./internal/edf ./internal/periodic (partitioned mode, dispatch policy, release plans)"
    go test -race ./internal/hetero ./internal/edf ./internal/periodic
    echo "==> go test -race ./internal/server -run 'Hetero|Partitioned|Malformed|ModeSplits|PlatformCanonicalization'"
    go test -race ./internal/server -run 'Hetero|Partitioned|Malformed|ModeSplits|PlatformCanonicalization'
    echo "==> bbfuzz -hetero cross-validation campaign (200 instances)"
    go run ./cmd/bbfuzz -hetero -n 200 -seed 1997
    echo "==> hetero checks passed"
    exit 0
fi

if [ "${1:-}" = "vet" ]; then
    echo "==> gofmt -l ."
    unformatted="$(gofmt -l .)"
    if [ -n "$unformatted" ]; then
        echo "$unformatted"
        echo "FAIL: gofmt -l lists the files above; format them with gofmt -w" >&2
        exit 1
    fi

    echo "==> bbvet -strict-baseline ./... (all analyzers, committed baseline)"
    go run ./cmd/bbvet -strict-baseline ./...

    echo "==> wireschema snapshot is current"
    snap=internal/check/testdata/wireschema.snap
    go run ./cmd/bbvet -write-wireschema ./... >/dev/null
    # -write-wireschema rewrites the committed snapshot in place; a diff
    # against git means the tree was out of date. Restore on mismatch so
    # the failure is reported, not silently fixed.
    git diff --quiet -- "$snap" || {
        git diff -- "$snap" | head -40
        git checkout -- "$snap"
        echo "FAIL: $snap is stale; regenerate with: go run ./cmd/bbvet -write-wireschema ./..." >&2
        exit 1
    }

    echo "==> go vet ./... in the nested benchmark module cmd/bbperf"
    GOWORK=off go -C cmd/bbperf vet ./...

    echo "==> bench.sh --quick (every answer of the five benchmark workloads against the catalog)"
    bash cmd/bbperf/bench.sh --quick

    echo "==> go test -fuzz FuzzCanonical -fuzztime 10s ./internal/taskgraph"
    go test -run '^$' -fuzz '^FuzzCanonical$' -fuzztime 10s ./internal/taskgraph

    echo "==> go test -fuzz FuzzGraphJSON -fuzztime 10s ./internal/taskgraph"
    go test -run '^$' -fuzz '^FuzzGraphJSON$' -fuzztime 10s ./internal/taskgraph

    echo "==> go test -fuzz FuzzSolveRequest -fuzztime 10s ./internal/server"
    go test -run '^$' -fuzz '^FuzzSolveRequest$' -fuzztime 10s ./internal/server

    echo "==> go test -race ./internal/dist ./internal/server ./internal/check"
    go test -race ./internal/dist ./internal/server ./internal/check

    echo "==> go test -race -tags bbdebug ./internal/sched ./internal/core"
    go test -race -tags bbdebug ./internal/sched ./internal/core

    echo "==> vet gate passed"
    exit 0
fi

pat="${*:-./...}"

echo "==> go build $pat"
go build $pat

echo "==> go vet $pat"
go vet $pat

echo "==> bbvet $pat"
go run ./cmd/bbvet $pat

echo "==> go test -race $pat"
go test -race $pat

# The serving layer is always exercised under the race detector, even
# when a narrower package pattern was passed: its cache singleflight,
# worker-pool admission control, and drain paths are exactly the kind of
# concurrent code where a race slips in through an "unrelated" change.
echo "==> go vet ./internal/server ./cmd/bbserved ./cmd/bbload"
go vet ./internal/server ./cmd/bbserved ./cmd/bbload

echo "==> go test -race ./internal/server ./cmd/bbserved ./cmd/bbload"
go test -race ./internal/server ./cmd/bbserved ./cmd/bbload

# The bbdebug tag compiles O(n) invariant re-verification into every
# Place/Undo of the scheduling operation (internal/sched/invariants.go).
# Running the search-layer tests under it turns any state corruption —
# including one smeared in by a data race — into an attributed panic at
# the operation that exposed it. The fault-injection and recovery layers
# ride along: rescue drives budgeted (wall-clock-truncated) parallel
# searches, exactly the regime where races and corruption would surface.
echo "==> go test -race -tags bbdebug ./internal/sched ./internal/core ./internal/bruteforce ./internal/faults ./internal/rescue"
go test -race -tags bbdebug ./internal/sched ./internal/core ./internal/bruteforce ./internal/faults ./internal/rescue

echo "==> all checks passed"
