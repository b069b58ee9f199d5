#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark (and, through
# it, cmd/tasmd) from the checkout's source and runs it with the driver's
# arguments. Everything the Go toolchain writes — build cache, temporary
# files, binaries — stays under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C bench -o "$build/bin/tasm-bench" .
exec "$build/bin/tasm-bench" "$@"
