#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# This is the command BENCHMARK.json names; run it from the repository
# root. Everything the build and the run write (Go build cache, binary,
# WAL files, result files) stays under .bench_build/ in that directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local

# The benchmark is a module of its own (benchmark/go.mod) that builds
# the repository around it through a replace directive.
go -C benchmark build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
