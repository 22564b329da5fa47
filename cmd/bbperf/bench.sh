#!/usr/bin/env bash
# Builds bbperf from the source tree and runs it with the given flags, e.g.
#
#   bash cmd/bbperf/bench.sh --workload paper-exact --seed 7 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, temporary build files,
# the binary and trace output all stay under .bench_build/ in that root.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C cmd/bbperf build -o "$out/bbperf" .
exec "$out/bbperf" "$@"
