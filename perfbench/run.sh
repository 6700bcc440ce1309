#!/usr/bin/env bash
# Builds the benchmark program from this checkout's sources and runs it with
# the given arguments, e.g.
#   bash perfbench/run.sh --workload tables --seed 1 --seconds 10 --trace 0
# Build output, the Go build cache and run state stay in .bench_build under
# the directory it is run from.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=.bench_build
mkdir -p "$out"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"
