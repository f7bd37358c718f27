#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark program with a
# build cache inside the checkout (so nothing is written outside it) and
# hands every argument on. The program builds cmd/fbserve itself.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go build -C bench -o "$out/sessionbench" .
exec "$out/sessionbench" "$@"
