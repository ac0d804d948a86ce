#!/usr/bin/env python3
"""Perf gate: compare fresh BENCH_*.json artifacts against bench/baselines/.

The figure/ablation benches run on the deterministic simulator, so their
latency series are SIM-TIME milliseconds: bit-stable across machines and
CI runners. That is what makes a hard gate possible — any median drift is
a code change, not noise.

Usage:
    bench_gate.py --current DIR [--baselines DIR] [--threshold 0.25]

Exit status 1 if any gated series' median regressed by more than
--threshold (fraction) over its committed baseline.
"""

import argparse
import json
import pathlib
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--current", required=True, help="directory with freshly produced BENCH_*.json")
    ap.add_argument("--baselines", default="bench/baselines", help="committed baseline directory")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="max allowed fractional median regression (default 0.25)")
    args = ap.parse_args()

    base_dir = pathlib.Path(args.baselines)
    cur_dir = pathlib.Path(args.current)
    failures = []
    compared = 0

    for base_path in sorted(base_dir.glob("BENCH_*.json")):
        base = load(base_path)
        cur_path = cur_dir / base_path.name
        if not cur_path.exists():
            failures.append(f"{base_path.name}: missing from {cur_dir}")
            continue
        cur = load(cur_path)
        for name, row in base["series"].items():
            if name not in cur.get("series", {}):
                failures.append(f"{base_path.name}:{name}: series missing from current run")
                continue
            b, c = row["median"], cur["series"][name]["median"]
            compared += 1
            delta = (c - b) / b if b else 0.0
            verdict = "FAIL" if delta > args.threshold else "ok"
            print(f"{verdict:4}  {base_path.name}:{name}: median {b:.3f} -> {c:.3f} ms "
                  f"({delta:+.1%}, limit +{args.threshold:.0%})")
            if delta > args.threshold:
                failures.append(f"{base_path.name}:{name}: median regressed {delta:+.1%}")

    print(f"\n{compared} series compared, {len(failures)} failure(s)")
    for f in failures:
        print(f"  {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
