#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it. Everything the build
# and the run write stays inside the checkout: the Go build cache and the
# binary under .bench_build/, run outputs under bench/out/.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C "$root/bench" -o "$build/bench" .
exec "$build/bench" -root "$root" "$@"
