#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source into
# .bench_build (build cache included, so nothing is written outside the
# checkout) and runs it with the driver's arguments.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
go build -o "$out/mfabench" ./bench
exec "$out/mfabench" -dir "$out" "$@"
