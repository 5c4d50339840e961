#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload lustre-agg1 --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (binary, Go build cache, scratch directories, trace files) stays under
# .bench_build/ in that directory.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS="-mod=mod -buildvcs=false"
export GOENV=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
