#!/usr/bin/env bash
# Behaviour-equivalence check between two commits: build BASE_REF and HEAD
# (each a clean export of the commit, Release) and compare byte for byte
#
#   - the replay corpus (scripts/replay_corpus.sh, 360 cells);
#   - the full 750-cell campaign summary, classic, and its per-cell
#     --metrics-out JSONL;
#   - the full 750-cell campaign summary, --cache;
#   - the --smoke --metrics-out JSONL;
#   - the --json-out files of the five figure and ablation benches that
#     CI gates (bench_fig6/7/8, bench_ablation_view_cache,
#     bench_ablation_read_optimisation).
#
#   scripts/equivalence.sh BASE_REF [WORKDIR]
#
# When a campaign summary differs, its per-mix rows (mix, scheme, commit%,
# violations) are printed for base and head side by side, a moved row
# marked "*"; when the per-cell JSONL differs, the number of cells that
# moved and the first of their labels. Commit the change first: HEAD is
# built as committed, so uncommitted edits are not compared. WORKDIR
# (default: a fresh temporary directory) keeps both builds and their
# outputs. JOBS sets the build parallelism
# (default 4). Exits 0 if all ten outputs match, 1 on any difference,
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

# The benches CI runs with --json-out, each with the name of its file.
benches=(
  "bench_fig6_standard_actions BENCH_fig6.json"
  "bench_fig7_independent_toplevel BENCH_fig7.json"
  "bench_fig8_nested_toplevel BENCH_fig8.json"
  "bench_ablation_view_cache BENCH_ablation_view_cache.json"
  "bench_ablation_read_optimisation BENCH_ablation_read_optimisation.json"
)
targets=(gv_campaign)
for b in "${benches[@]}"; do targets+=("${b%% *}"); done

# build NAME REF: export REF into WORKDIR/NAME-src and build gv_campaign
# and the benches.
build() {
  local src="$work/$1-src" out="$work/$1-build"
  rm -rf "$src"
  mkdir -p "$src"
  git -C "$repo" archive "$2" | tar -x -C "$src"
  cmake -S "$src" -B "$out" -DCMAKE_BUILD_TYPE=Release > "$work/$1-build.log" 2>&1 &&
    cmake --build "$out" --target "${targets[@]}" -j "$jobs" >> "$work/$1-build.log" 2>&1 || {
    echo "$1 ($2) failed to build; see $work/$1-build.log" >&2
    exit 2
  }
}

# outputs NAME: write the ten outputs of NAME's build into WORKDIR/NAME-out.
# A campaign with violations exits 1; its output is still compared.
outputs() {
  local campaign="$work/$1-build/bench/gv_campaign" out="$work/$1-out"
  mkdir -p "$out"
  "$repo/scripts/replay_corpus.sh" "$work/$1-build" "$out/corpus.txt"
  "$campaign" --metrics-out "$out/campaign.jsonl" > "$out/campaign.txt" 2>&1 || true
  "$campaign" --cache > "$out/campaign_cache.txt" 2>&1 || true
  "$campaign" --smoke --metrics-out "$out/smoke.jsonl" > /dev/null 2>&1 || true
  for b in "${benches[@]}"; do
    "$work/$1-build/bench/${b%% *}" --json-out="$out/${b##* }" > /dev/null 2>&1 || true
  done
}

# rows BASE HEAD: the per-mix rows of two campaign summaries side by side.
rows() {
  printf '         %-10s %-6s %8s %5s | %8s %5s\n' mix scheme commit% viol commit% viol
  awk 'NF == 6 && $3 ~ /^[0-9]+$/ && $4 ~ /%$/ {
         key = $1 " " $2
         if (FILENAME == ARGV[1]) { commit[key] = $4; viol[key] = $6; next }
         moved = commit[key] != $4 || viol[key] != $6
         printf "         %-10s %-6s %8s %5s | %8s %5s%s\n", $1, $2, commit[key], viol[key], $4, $6,
                moved ? "  *" : ""
       }' "$1" "$2"
}

# cells BASE HEAD: the labels of the campaign cells whose metrics differ.
cells() {
  { diff <(sort "$1") <(sort "$2") || true; } |
    awk '/^[<>] / { sub(/^[<>] \{"label":"/, ""); sub(/".*/, ""); print }' | sort -u
}

echo "base ${base:0:12}, head ${head:0:12}, in $work"
build base "$base"
build head "$head"
outputs base
outputs head

status=0
files=(corpus.txt campaign.txt campaign.jsonl campaign_cache.txt smoke.jsonl)
for b in "${benches[@]}"; do files+=("${b##* }"); done
for f in "${files[@]}"; do
  if cmp -s "$work/base-out/$f" "$work/head-out/$f"; then
    echo "same     $f"
  else
    echo "DIFFERS  $f"
    if [[ $f == campaign*.txt ]]; then rows "$work/base-out/$f" "$work/head-out/$f"; fi
    if [[ $f == campaign.jsonl ]]; then
      moved=$(cells "$work/base-out/$f" "$work/head-out/$f")
      echo "         $(echo "$moved" | grep -c .) cells moved: $(echo "$moved" | head -8 | tr '\n' ' ')"
    fi
    status=1
  fi
done
exit $status
