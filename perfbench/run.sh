#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it, e.g.
#
#   bash perfbench/run.sh --workload steady --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files
# all stay under .bench_build/ in the checkout. The build needs the
# repository's own module one directory up, so outside a checkout it
# fails before anything runs.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
