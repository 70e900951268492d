#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into the checkout's own .bench_build/ (compiler cache and temp files
# included, so nothing is written outside the checkout) and runs it from
# the checkout root with the arguments it was given.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/stjbench" .
cd "$root"
exec "$build/stjbench" "$@"
