#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#   bash perfbench/run.sh --workload wave-100k --seed 1 --seconds 10 --trace 0
# Build outputs and the Go caches stay under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOENV=off GOTELEMETRY=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
