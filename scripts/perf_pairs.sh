#!/usr/bin/env bash
# Paired wall-time comparison of two commits on the repository benchmark:
# export BASE_REF and HEAD (each a clean export of the commit) and run
# each tree's own benchmark command, perfbench/run.py, in alternating
# pairs, one pair per seed and workload: the base runs first in odd pairs
# and HEAD first in even ones, so drift over the session falls on both
# sides alike. The workloads and the run length are HEAD's BENCHMARK.json
# ones; the eleven seeds are fixed.
#
#   scripts/perf_pairs.sh BASE_REF [WORKDIR]
#
# For every end-to-end metric of BENCHMARK.json it prints, per workload,
# each side's median and quartiles, the median of the per-pair ratios
# HEAD/base, and the pairs HEAD won (by the metric's direction; ties
# count for neither). The simulator is deterministic, so a sim-time
# metric (commit_p50/p99/p999_ms, sim_tps, commit_frac, stall_max_ms)
# that moves in any pair is flagged DIFFERS. One traced run per side and
# workload gives that side's sim.events_per_txn, and with it the side's
# median untraced wall ns per event, 1e9 / (wall_tps * sim.events_per_txn).
#
# WORKDIR (default: a fresh temporary directory) keeps both trees (each
# builds into its own .bench_build/), results.jsonl with one line per
# run, and base.log and head.log with run.py's build and run messages.
# Commit the change first: HEAD is run as committed. Exits 0 when no
# sim-time metric moved, 1 when one did, 2 on bad usage, a failed build
# or a workload without a single complete pair.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 BASE_REF [WORKDIR]" >&2
  exit 2
fi
repo=$(git rev-parse --show-toplevel)
base=$(git -C "$repo" rev-parse --verify "$1^{commit}") || exit 2
head=$(git -C "$repo" rev-parse --verify "HEAD^{commit}")
work=${2:-$(mktemp -d)}
seeds="101 102 103 104 105 106 107 108 109 110 90001"
mkdir -p "$work"

echo "base ${base:0:12}, head ${head:0:12}, in $work"
for side in base head; do
  rm -rf "$work/$side-src"
  mkdir -p "$work/$side-src"
  [ "$side" = base ] && ref=$base || ref=$head
  git -C "$repo" archive "$ref" | tar -x -C "$work/$side-src"
  : > "$work/$side.log"
done
read -r seconds workloads < <(python3 -c '
import json, sys
bench = json.load(open(sys.argv[1]))
print(bench["run_seconds"], " ".join(w["name"] for w in bench["workloads"]))
' "$work/head-src/BENCHMARK.json")

# run SIDE WORKLOAD SEED TRACE: one run.py call in SIDE's tree; prints its
# last stdout line, the driver's JSON result, or nothing when it failed
# (its stdout then goes to SIDE's log after its stderr). CARGO_TARGET_DIR
# is cleared so that each tree builds into its own directory.
run() {
  local out
  if out=$(cd "$work/$1-src" &&
    env -u CARGO_TARGET_DIR python3 perfbench/run.py --workload "$2" --seed "$3" \
      --seconds "$seconds" --trace "$4" 2>> "$work/$1.log"); then
    printf '%s\n' "${out##*$'\n'}"
  else
    printf '%s: %s seed %s trace %s failed\n%s\n' "$1" "$2" "$3" "$4" "$out" >> "$work/$1.log"
  fi
}

# The first call of each side builds its driver; a side that cannot
# produce one result stops the comparison before any pair runs.
first=${workloads%% *}
for side in base head; do
  if [ -z "$(run "$side" "$first" "${seeds%% *}" 0)" ]; then
    echo "$side failed to build or run; see $work/$side.log" >&2
    exit 2
  fi
done

# record SIDE WORKLOAD SEED TRACE: one run, appended to results.jsonl; a
# run without a result is recorded as null.
record() {
  local out
  out=$(run "$@")
  printf '{"workload":"%s","seed":%s,"side":"%s","trace":%s,"result":%s}\n' \
    "$2" "$3" "$1" "$4" "${out:-null}" >> "$results"
}

results="$work/results.jsonl"
: > "$results"
for workload in $workloads; do
  pair=0
  for seed in $seeds; do
    pair=$((pair + 1))
    if [ $((pair % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
    for side in $order; do record "$side" "$workload" "$seed" 0; done
  done
  for side in base head; do record "$side" "$workload" "${seeds%% *}" 1; done
done

python3 - "$work/head-src/BENCHMARK.json" "$results" <<'EOF'
import json
import statistics
import sys

bench = json.load(open(sys.argv[1]))
runs = [json.loads(line) for line in open(sys.argv[2])]
sim_time = {"commit_p50_ms", "commit_p99_ms", "commit_p999_ms", "sim_tps", "commit_frac",
            "stall_max_ms"}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]


def value(run, name):
    return run["result"]["metrics"][name]["value"]


moved = unpaired = False
for workload in dict.fromkeys(r["workload"] for r in runs):
    mine = [r for r in runs if r["workload"] == workload]
    sides = {s: {r["seed"]: r for r in mine if r["side"] == s and not r["trace"] and r["result"]}
             for s in ("base", "head")}
    seeds = [s for s in sides["base"] if s in sides["head"]]
    failed = [(r["side"] + (" traced" if r["trace"] else ""), r["seed"]) for r in mine
              if not r["result"] or not r["result"]["correct"] or r["result"]["failed"]]
    print(f"\n{workload}: {len(seeds)} pairs" +
          (f", failed operations or gates in {failed}" if failed else ""))
    if not seeds:
        print("  no complete pair: nothing to compare")
        unpaired = True
        continue
    print(f"  {'metric':<16} {'base q1 / median / q3':>32} {'head q1 / median / q3':>32}"
          f" {'ratio':>7} {'won':>6}")
    for metric in bench["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        b = [value(sides["base"][s], name) for s in seeds]
        h = [value(sides["head"][s], name) for s in seeds]
        won = sum((y > x) if higher else (y < x) for x, y in zip(b, h))
        ratios = [y / x for x, y in zip(b, h) if x != 0]
        ratio = statistics.median(ratios) if ratios else float("nan")
        flag = ""
        if name in sim_time and b != h:
            flag, moved = "  DIFFERS", True
        fmt = lambda q: " / ".join(f"{v:.0f}" if abs(v) >= 1000 else f"{v:.4g}" for v in q)
        print(f"  {name:<16} {fmt(quartiles(b)):>32} {fmt(quartiles(h)):>32}"
              f" {ratio:>7.3f} {won:>3}/{len(seeds)}{flag}")
    ns = []
    for side in ("base", "head"):
        traced = [r for r in mine if r["side"] == side and r["trace"] and r["result"]]
        if traced and "sim.events_per_txn" in traced[0]["result"]["metrics"]:
            events = value(traced[0], "sim.events_per_txn")
            tps = statistics.median(value(sides[side][s], "wall_tps") for s in seeds)
            ns.append(f"{side} {1e9 / (tps * events):.0f}"
                      f" ({events:.2f} events/txn, seed {traced[0]['seed']})")
    if ns:
        print("  wall ns/event: " + ", ".join(ns))
sys.exit(2 if unpaired else 1 if moved else 0)
EOF
