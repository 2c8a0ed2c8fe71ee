#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload scale --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and temporary files stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/modcache"
export GOTMPDIR="$out/tmp" GOENV=off
export TMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp"
export GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
