#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root and runs it from there; arguments pass through. This is the
# "command" of BENCHMARK.json. The Go build cache is kept inside
# .bench_build too unless GOCACHE is already set, so a run writes
# nothing outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
mkdir -p .bench_build
export GOCACHE="${GOCACHE:-$root/.bench_build/gocache}"
go build -C bench -o "$root/.bench_build/horus-bench" .
exec "$root/.bench_build/horus-bench" "$@"
