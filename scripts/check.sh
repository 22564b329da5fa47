#!/usr/bin/env sh
# Extended verification gate. Tier-1 CI only requires
#   go build ./... && go test ./...
# Each form layers more on top; run the one for the layers a change touches.
#
#   check.sh [pkgs]  build, vet, bbvet, race tests of pkgs (default ./...); race tests of the serving layer always (races enter it via "unrelated" changes); search layers under -race -tags bbdebug (corruption panics where it happens)
#   check.sh dist    race tests of the distributed fabric and its multi-process e2e: SIGKILL'd workers recovered by lease eviction, a SIGKILL'd coordinator resumed byte-identically from its journal
#   check.sh grid    race tests of the grid tier (ring balance, WFQ fairness, fill claims), the kill-mid-load multi-replica e2e, peered bbserved processes, bbload, and the serving figures
#   check.sh hetero  race tests of partitioned search, its EDF dispatch, release plans and the scenario-matrix server tests; bbfuzz against brute-force oracles on random speed/affinity platforms
#   check.sh vet     the CI contract: gofmt, strict-baseline bbvet (stale entries, wireschema drift), bbperf vet and bench.sh --quick (API breaks, wrong answers), 10 s fuzz runs (canonicalizer, decoders), race/bbdebug tests

set -eu

cd "$(dirname "$0")/.."

# run prints a command, then runs it.
run() {
    echo "==> $*"
    "$@"
}

# gate VET TEST: go vet and bbvet over the packages in VET, race tests of
# the packages in TEST.
gate() {
    run go vet $1
    run go run ./cmd/bbvet $1
    run go test -race $2
}

# bbdebug PKGS: the -race -tags bbdebug tests of PKGS, internal/core among
# them. TestKernelDifferential gets a go test of its own: with the rest of
# internal/core in one binary it took 577 s of go test's 600 s default
# timeout on a 2-vCPU host.
bbdebug() {
    run go test -race -tags bbdebug -run '^TestKernelDifferential$' ./internal/core
    run go test -race -tags bbdebug -skip '^TestKernelDifferential$' "$@"
}

case "${1:-}" in
dist)
    gate "./internal/dist ./cmd/bbworker" "./internal/dist ./cmd/bbworker"
    ;;
grid)
    gate "./internal/grid ./internal/peer ./cmd/bbserved ./cmd/bbload" \
        "./internal/grid ./internal/peer ./internal/server ./cmd/bbserved ./cmd/bbload ./cmd/bbexp"
    ;;
hetero)
    gate "./internal/hetero ./internal/edf ./internal/fuzzcheck ./cmd/bbfuzz" \
        "./internal/hetero ./internal/edf ./internal/periodic"
    run go test -race ./internal/server -run 'Hetero|Partitioned|Malformed|ModeSplits|PlatformCanonicalization'
    run go run ./cmd/bbfuzz -hetero -n 200 -seed 1997
    ;;
vet)
    echo "==> gofmt -l ."
    unformatted="$(gofmt -l .)"
    if [ -n "$unformatted" ]; then
        echo "$unformatted"
        echo "FAIL: gofmt -l lists the files above; format them with gofmt -w" >&2
        exit 1
    fi

    run go run ./cmd/bbvet -strict-baseline ./...

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

    run env GOWORK=off go -C cmd/bbperf vet ./...
    run bash cmd/bbperf/bench.sh --quick
    run go test -run '^$' -fuzz '^FuzzCanonical$' -fuzztime 10s ./internal/taskgraph
    run go test -run '^$' -fuzz '^FuzzGraphJSON$' -fuzztime 10s ./internal/taskgraph
    run go test -run '^$' -fuzz '^FuzzSolveRequest$' -fuzztime 10s ./internal/server
    run go test -race ./internal/dist ./internal/server ./internal/check ./cmd/bbexp
    bbdebug ./internal/sched ./internal/core
    ;;
*)
    pat="${*:-./...}"
    run go build $pat
    gate "$pat" "$pat"
    run go vet ./internal/server ./cmd/bbserved ./cmd/bbload ./cmd/bbexp
    run go test -race ./internal/server ./cmd/bbserved ./cmd/bbload ./cmd/bbexp
    bbdebug ./internal/sched ./internal/core ./internal/bruteforce ./internal/faults ./internal/rescue
    ;;
esac

echo "==> checks passed"
