#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through:
#
#   bash perfbench/run.sh --workload wan-bulk --seed 1 --seconds 25 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ at the
# checkout root. Without the repository's sources next to perfbench/ the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# The go command keeps its cache, module cache, temporary files and
# telemetry counters (under the user config directory) inside the checkout.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
XDG_CONFIG_HOME="$build/config" go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
