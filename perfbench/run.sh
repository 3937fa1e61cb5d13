#!/bin/bash
# Builds the serving benchmark from source and runs it with the given
# arguments (--workload, --seed, --seconds, --trace). Run from the
# repository root:
#
#   bash perfbench/run.sh --workload warm-repeat --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the repository root: the Go build cache, the binary, and the traced
# runs' span files.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --spans "$out/spans" "$@"
