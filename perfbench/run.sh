#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload cold-scan --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# repository root: the Go build cache, temporary files, the binary, the
# scratch directories of each run and the span dumps of traced runs.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-mod=mod

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" -workdir "$build" "$@"
