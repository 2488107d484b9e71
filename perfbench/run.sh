#!/usr/bin/env bash
# Builds cmd/ospserve and the benchmark program from this checkout, then
# runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload bulk --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Every Go cache, temporary file and
# binary stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off

go build -o "$out/bin/ospserve" ./cmd/ospserve >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -server "$out/bin/ospserve" -out "$out/perfbench" "$@"
