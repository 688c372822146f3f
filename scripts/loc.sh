#!/usr/bin/env bash
# loc.sh — print the repository's line measure (ROADMAP item 8): lines of
# tracked non-test Go outside benchmark/ and testdata/, per package
# directory and in total. Information only; nothing gates on it.
#
# Usage: scripts/loc.sh
set -euo pipefail

cd "$(dirname "$0")/.."
git ls-files -z -- '*.go' ':(exclude)*_test.go' ':(exclude)benchmark/' \
  ':(exclude,glob)**/testdata/**' |
  xargs -0 wc -l |
  awk '$2 != "total" {
         dir = $2
         if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
         lines[dir] += $1
         total += $1
       }
       END {
         for (dir in lines) printf "%7d  %s\n", lines[dir], dir | "sort -k2"
         close("sort -k2")
         printf "%7d  total\n", total
       }'
