#!/usr/bin/env bash
# microbench.sh — run Go micro-benchmarks the one way this repository
# compares them: benchmarks only, allocations reported, five samples, one
# CPU. Layer evidence for a change (EXPERIMENTS.md tables); end-to-end
# numbers come from benchmark/run.sh alone.
#
# Usage: scripts/microbench.sh [bench-regexp] [package...]
#   scripts/microbench.sh                        # kv, stats, sim, netsim, live
#   scripts/microbench.sh HeavyHitters ./internal/stats
#   scripts/microbench.sh Engine ./internal/sim   # the event queue
#   scripts/microbench.sh DirectSend ./internal/live  # a served message
# To compare two commits, run it in each checkout and put the two outputs
# side by side (or through benchstat, where installed).
#
# To profile what the repository benchmark's sim-harmony workload times
# (BenchmarkSimHarmonyReplay in the root package is one replay at exactly
# that shape), keeping the binary and the profile outside the checkout:
#   go test -run '^$' -bench SimHarmonyReplay -benchtime 3x -cpu 1 \
#     -cpuprofile /tmp/cpu.prof -o /tmp/repro.test .
#   go tool pprof -top /tmp/repro.test /tmp/cpu.prof
# Its setup_s (the 84-node build, the 300 000-record preload and one
# operation per client thread) is BenchmarkSimHarmonySetup:
#   go test -run '^$' -bench SimHarmonySetup -benchtime 5x -cpu 1 \
#     -cpuprofile /tmp/setup.prof -o /tmp/repro.test .
#
# The serve workloads time the store under the RESP server, which the
# repository benchmark cannot profile; BenchmarkServingOps (root package)
# issues QUORUM reads or writes 16 to an Engine.Do on a single-process
# serving deployment, the store's share of that path. Compare two commits
# with `scripts/microbench.sh ServingOps .`; profile one with
#   go test -run '^$' -bench 'ServingOps/read' -benchtime 2000000x -cpu 1 \
#     -cpuprofile /tmp/serve.prof -o /tmp/repro.test .
#   go tool pprof -top /tmp/repro.test /tmp/serve.prof
# (ServingOps/write for writes). Its stream is not the workloads': it
# cycles 256 keys round-robin through the monitor's 128-entry key sketch,
# so every observation there is an eviction. With the heap-ordered sketch
# the sketch was about 18 % of a served read in this profile, against
# 6.6 % of the store goroutine under serve-read-heavy's Zipf stream; read
# its HeavyHitters share as the all-miss bound, not as the workload's.
set -euo pipefail

cd "$(dirname "$0")/.."
bench=${1:-.}
shift || true
pkgs=("$@")
if [ ${#pkgs[@]} -eq 0 ]; then
  pkgs=(./internal/kv ./internal/stats ./internal/sim ./internal/netsim ./internal/live)
fi
exec go test -run '^$' -bench "$bench" -benchmem -count=5 -cpu 1 "${pkgs[@]}"
