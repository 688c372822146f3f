#!/usr/bin/env bash
# microbench.sh — run Go micro-benchmarks the one way this repository
# compares them: benchmarks only, allocations reported, five samples, one
# CPU. Layer evidence for a change (EXPERIMENTS.md tables); end-to-end
# numbers come from benchmark/run.sh alone.
#
# Usage: scripts/microbench.sh [bench-regexp] [package...]
#   scripts/microbench.sh                        # all of kv, stats, sim
#   scripts/microbench.sh HeavyHitters ./internal/stats
#   scripts/microbench.sh Engine ./internal/sim   # the event queue
# To compare two commits, run it in each checkout and put the two outputs
# side by side (or through benchstat, where installed).
#
# To profile what the repository benchmark's sim-harmony workload times
# (BenchmarkSimHarmonyReplay in the root package is one replay at exactly
# that shape), keeping the binary and the profile outside the checkout:
#   go test -run '^$' -bench SimHarmonyReplay -benchtime 3x -cpu 1 \
#     -cpuprofile /tmp/cpu.prof -o /tmp/repro.test .
#   go tool pprof -top /tmp/repro.test /tmp/cpu.prof
set -euo pipefail

cd "$(dirname "$0")/.."
bench=${1:-.}
shift || true
pkgs=("$@")
if [ ${#pkgs[@]} -eq 0 ]; then
  pkgs=(./internal/kv ./internal/stats ./internal/sim)
fi
exec go test -run '^$' -bench "$bench" -benchmem -count=5 -cpu 1 "${pkgs[@]}"
