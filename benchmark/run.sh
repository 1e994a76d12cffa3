#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash benchmark/run.sh --workload stress-power-large --seed 1 --seconds 15 --trace 0
#   bash benchmark/run.sh compare runs/parent runs/change
#
# Everything the build writes (Go build cache, temporary files, the binary)
# stays under .bench_build/ in the checkout. Without the repository's go.mod
# one level up the build fails and the script exits non-zero without output.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local

go -C "$root/benchmark" build -o "$build/bin/benchmark" .
cd "$root"
exec "$build/bin/benchmark" "$@"
