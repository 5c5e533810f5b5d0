#!/usr/bin/env bash
# Builds the benchmark's load generator and server from this checkout and
# runs one benchmark run. From the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, the Go build cache included.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gopath" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/bin/" ./cmd/bench ./cmd/benchserver) >&2
exec "$out/bin/bench" --server "$out/bin/benchserver" --work "$out/work" "$@"
