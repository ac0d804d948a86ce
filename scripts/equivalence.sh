#!/usr/bin/env bash
# Behaviour-equivalence check between two commits: build BASE_REF and HEAD
# (each a clean export of the commit, Release) and compare byte for byte
#
#   - the replay corpus (scripts/replay_corpus.sh, 360 cells);
#   - the full 750-cell campaign summary, classic;
#   - the full 750-cell campaign summary, --cache;
#   - the --smoke --metrics-out JSONL.
#
#   scripts/equivalence.sh BASE_REF [WORKDIR]
#
# Commit the change first: HEAD is built as committed, so uncommitted
# edits are not compared. WORKDIR (default: a fresh temporary directory)
# keeps both builds and their outputs. JOBS sets the build parallelism
# (default 4). Exits 0 if all four outputs match, 1 on any difference,
# 2 on bad usage or a failed build.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 BASE_REF [WORKDIR]" >&2
  exit 2
fi
repo=$(git rev-parse --show-toplevel)
base=$(git -C "$repo" rev-parse --verify "$1^{commit}") || exit 2
head=$(git -C "$repo" rev-parse --verify "HEAD^{commit}")
work=${2:-$(mktemp -d)}
jobs=${JOBS:-4}
mkdir -p "$work"

# build NAME REF: export REF into WORKDIR/NAME-src and build gv_campaign.
build() {
  local src="$work/$1-src" out="$work/$1-build"
  rm -rf "$src"
  mkdir -p "$src"
  git -C "$repo" archive "$2" | tar -x -C "$src"
  cmake -S "$src" -B "$out" -DCMAKE_BUILD_TYPE=Release > "$work/$1-build.log" 2>&1 &&
    cmake --build "$out" --target gv_campaign -j "$jobs" >> "$work/$1-build.log" 2>&1 || {
    echo "$1 ($2) failed to build; see $work/$1-build.log" >&2
    exit 2
  }
}

# outputs NAME: write the four outputs of NAME's build into WORKDIR/NAME-out.
# A campaign with violations exits 1; its output is still compared.
outputs() {
  local campaign="$work/$1-build/bench/gv_campaign" out="$work/$1-out"
  mkdir -p "$out"
  "$repo/scripts/replay_corpus.sh" "$work/$1-build" "$out/corpus.txt"
  "$campaign" > "$out/campaign.txt" 2>&1 || true
  "$campaign" --cache > "$out/campaign_cache.txt" 2>&1 || true
  "$campaign" --smoke --metrics-out "$out/smoke.jsonl" > /dev/null 2>&1 || true
}

echo "base ${base:0:12}, head ${head:0:12}, in $work"
build base "$base"
build head "$head"
outputs base
outputs head

status=0
for f in corpus.txt campaign.txt campaign_cache.txt smoke.jsonl; do
  if cmp -s "$work/base-out/$f" "$work/head-out/$f"; then
    echo "same     $f"
  else
    echo "DIFFERS  $f"
    status=1
  fi
done
exit $status
