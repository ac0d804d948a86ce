#!/usr/bin/env bash
# Refactor-equivalence corpus: replay a fixed grid of campaign cells and
# write every cell's audit (counters, fault schedule, final replicas) into
# one file. A change that must not alter behaviour leaves this file
# byte-identical; compare the outputs of two builds with cmp.
#
#   scripts/replay_corpus.sh BUILD OUT
#
# BUILD is a CMake build directory holding bench/gv_campaign. The grid is
# seeds 1000-1011 x every mix x S1/S2/S3 x classic/--cache (360 cells).
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 BUILD OUT" >&2
  exit 2
fi
campaign="$1/bench/gv_campaign"
out="$2"
if [ ! -x "$campaign" ]; then
  echo "$campaign not found; build the repository first" >&2
  exit 2
fi

: > "$out"
for cache in "" "--cache"; do
  for seed in $(seq 1000 1011); do
    for mix in crash partition netchaos storage everything; do
      for scheme in S1 S2 S3; do
        echo "=== seed=$seed mix=$mix scheme=$scheme ${cache:-classic}" >> "$out"
        # A violating cell exits 1; its audit is part of the corpus.
        "$campaign" --replay "$seed" "$mix" "$scheme" $cache --no-cell-trace >> "$out" 2>&1 || true
      done
    done
  done
done
