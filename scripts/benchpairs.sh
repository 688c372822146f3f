#!/usr/bin/env bash
# benchpairs.sh — compare two commits on one workload of the repository
# benchmark the way a performance claim is judged: alternating pairs,
# medians and quartiles, wins per pair.
#
# Usage: scripts/benchpairs.sh <parent-rev> <change-rev> <workload> [pairs] [seconds] [seed-base]
#   scripts/benchpairs.sh HEAD~1 HEAD serve-read-heavy 10 25 700
#   scripts/benchpairs.sh HEAD HEAD serve-read-heavy 1 2    # smoke
# Defaults: 10 pairs of 25 s runs (BENCHMARK.json's run_seconds), seeds
# seed-base+1 ... seed-base+pairs with seed-base 1000. Both sides of a
# pair run on the same seed; the parent runs first in odd pairs, the
# change in even ones.
#
# Each revision is checked out as a detached git worktree in a temporary
# directory (removed on exit) and built there by benchmark/run.sh, into
# that worktree's own .bench_build/ (a cold Go build cache: the first run
# of a side builds everything). Nothing in the invoking checkout changes.
#
# Prints one line per run (end-to-end metrics), then per end-to-end
# metric of BENCHMARK.json: each side's median [first quartile, third
# quartile], the change's median over the parent's, the pairs the change
# won and tied, and a verdict — "gain" when it won at least nine tenths of
# the pairs and the medians differ by more than the parent's quartile
# distance, "worse" when its median is worse than the parent's by more
# than the metric's bound. For the serve workloads the same follows for
# the raw figures of the store and of the in-process reference, from the
# result files. Exits non-zero when a run fails or is not correct.
set -euo pipefail

if [ $# -lt 3 ]; then
  sed -n '2,/^set -e/p' "$0" | sed '$d' >&2
  exit 2
fi
workload=$3 pairs=${4:-10} seconds=${5:-25} base=${6:-1000}
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
declare -A rev
rev[parent]=$(git -C "$root" rev-parse --verify "$1^{commit}")
rev[change]=$(git -C "$root" rev-parse --verify "$2^{commit}")

tmp=$(mktemp -d)
cleanup() {
  for side in parent change; do
    if [ -d "$tmp/$side" ]; then
      git -C "$root" worktree remove --force "$tmp/$side" || true
    fi
  done
  git -C "$root" worktree prune
  rm -rf "$tmp"
}
trap cleanup EXIT
for side in parent change; do
  git -C "$root" worktree add --quiet --detach "$tmp/$side" "${rev[$side]}"
done
echo "parent ${rev[parent]}, change ${rev[change]}: $workload, $pairs pairs of ${seconds}s, seeds $((base + 1))..$((base + pairs))"

runs=$tmp/runs.jsonl
status=0
for ((i = 1; i <= pairs; i++)); do
  seed=$((base + i))
  order="parent change"
  if ((i % 2 == 0)); then order="change parent"; fi
  for side in $order; do
    dir=$tmp/$side
    if ! (cd "$dir" && bash benchmark/run.sh --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace 0 >"$tmp/out" 2>"$tmp/err"); then
      status=1
    fi
    last=$(tail -n 1 "$tmp/out")
    if ! jq -e 'has("metrics")' <<<"$last" >/dev/null 2>&1; then
      echo "pair $i $side seed $seed: no result" >&2
      tail -n 20 "$tmp/err" >&2
      exit 1
    fi
    file=$dir/.bench_build/results/$workload-seed$seed-trace0.json
    jq -c --arg side "$side" --argjson pair "$i" --argjson seed "$seed" --slurpfile f "$file" '{
        side: $side, pair: $pair, seed: $seed, correct, attempted, failed,
        metrics: (.metrics | map_values(.value)),
        raw: ($f[0].detail.stats // {} | map_values({store, reference}))
      }' <<<"$last" >>"$runs"
    tail -n 1 "$runs" | jq -r '"pair \(.pair) \(.side) seed \(.seed): correct \(.correct), failed \(.failed)/\(.attempted), " +
      (.metrics | to_entries | map("\(.key) \(.value)") | join(", "))'
    [ "$(tail -n 1 "$runs" | jq .correct)" = true ] || status=1
  done
done

# One row per metric and figure: name, then for each side median, q1, q3,
# then the change's wins and ties, the verdict. Quartiles interpolate
# linearly between order statistics.
jq -rs --slurpfile contract "$tmp/change/BENCHMARK.json" '
  def q($p): sort as $s | ($p * (($s | length) - 1)) as $x | ($x | floor) as $lo |
    $s[$lo] + ($s[$x | ceil] - $s[$lo]) * ($x - $lo);
  def better($name): ($contract[0].end_to_end | map(select(.name == $name)) | first) as $m |
    if $m then $m.better elif ($name | endswith("_us")) then "lower" else "higher" end;
  def bound($name): ($contract[0].end_to_end | map(select(.name == $name)) | first | .bound) // null;
  def row($title; $name; get):
    (map(select(.side == "parent")) | sort_by(.pair)) as $p |
    (map(select(.side == "change")) | sort_by(.pair)) as $c |
    ($p | map(get)) as $pv | ($c | map(get)) as $cv |
    if ($pv | any(. == null)) or ($cv | any(. == null)) then empty else
    better($name) as $dir | ($pv | q(0.5)) as $pm | ($cv | q(0.5)) as $cm |
    ([range($pv | length)] | map({p: $pv[.], c: $cv[.]})) as $z |
    ($z | map(select(if $dir == "higher" then .c > .p else .c < .p end)) | length) as $wins |
    ($z | map(select(.c == .p)) | length) as $ties |
    (if $dir == "higher" then $cm - $pm else $pm - $cm end) as $gain |
    (if $wins * 10 >= 9 * ($z | length) and $gain > (($pv | q(0.75)) - ($pv | q(0.25))) then "gain"
     elif bound($name) != null and $pm != 0 and (-$gain / $pm) > bound($name) then "worse"
     else "-" end) as $verdict |
    [$title, $pm, ($pv | q(0.25)), ($pv | q(0.75)), $cm, ($cv | q(0.25)), ($cv | q(0.75)),
     (if $pm != 0 then $cm / $pm else null end), "\($wins)/\($z | length)", $ties, $verdict] | @tsv
    end;
  (.[0].raw | keys) as $raw |
  ($contract[0].end_to_end | map(.name)) as $e2e |
  ($e2e[] as $m | row($m; $m; .metrics[$m])),
  ($raw[] as $m | row("\($m) store"; $m; .raw[$m].store), row("\($m) reference"; $m; .raw[$m].reference))
' "$runs" | awk -F '\t' '
  function num(v) { return v == "" ? "-" : sprintf("%.5g", v) }
  BEGIN { printf "%-26s %-34s %-34s %-13s %-6s %-5s %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change/parent", "wins", "ties", "verdict" }
  { printf "%-26s %-34s %-34s %-13s %-6s %-5s %s\n", $1,
      num($2) " [" num($3) ", " num($4) "]", num($5) " [" num($6) ", " num($7) "]",
      ($8 == "" ? "-" : sprintf("%.4f", $8)), $9, $10, $11 }'
exit "$status"
