#!/usr/bin/env python3
"""Compare two versions of wickchaos with the same benchmark code.

    python3 benchmark/compare.py BASE HEAD [--workloads converge-1d,dist-cli]
                                 [--first-seed 1000]

BASE and HEAD are checkout directories or git refs of this repository (a
ref is exported with ``git archive`` into .bench_compare/). For every
workload the tool runs PAIRS alternating pairs, base first in even pairs
and head first in odd ones, both sides of a pair on the same seed. Each
run lasts BENCHMARK.json's ``run_seconds``, the length the bounds were
measured at. It prints one row per workload and end-to-end metric: each
side's median and quartiles, the share of pairs head won (ties count for
neither), and a verdict. The verdict is

- unresolved: a side's quartile spread, as a share of its median, is wider
  than the metric's bound (better instead, if every head run beats every
  base run);
- worse: head's median is worse than base's by more than the bound;
- better: head wins at least 9 in 10 pairs and the medians differ by more
  than base's quartile spread;
- no change: otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
PAIRS = 10


def _checkout(ref_or_dir):
    if os.path.isdir(ref_or_dir):
        return os.path.abspath(ref_or_dir)
    commit = subprocess.run(["git", "-C", REPO, "rev-parse", "--verify", ref_or_dir + "^{commit}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    dest = os.path.join(REPO, ".bench_compare", commit)
    if not os.path.isdir(dest):
        tar = subprocess.run(["git", "-C", REPO, "archive", "--format=tar", commit],
                             check=True, capture_output=True).stdout
        os.makedirs(dest)
        with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
            tf.extractall(dest, filter="data")
    return dest


def _run(root, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--root", root, "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"run failed in {root} ({workload}, seed {seed}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, head, better, bound):
    """(verdict, share of pairs won by head) for paired run values."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (h - b) > 0 for b, h in zip(base, head)) / len(base)
    b1, bm, b3 = _quartiles(base)
    h1, hm, h3 = _quartiles(head)
    spread = max((b3 - b1) / abs(bm), (h3 - h1) / abs(hm))
    if spread > bound:
        if all(sign * (h - b) > 0 for h in head for b in base):
            return "better", won
        return "unresolved", won
    gain = sign * (hm - bm) / abs(bm)
    if gain < -bound:
        return "worse", won
    if won >= 0.9 and gain > 0 and abs(hm - bm) > b3 - b1:
        return "better", won
    return "no change", won


def main(argv=None):
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args(argv)
    roots = {"base": _checkout(args.base), "head": _checkout(args.head)}
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    rows = []
    failed = {"base": 0, "head": 0}
    for workload in args.workloads.split(","):
        values = {side: {name: [] for name in metrics} for side in roots}
        for i in range(PAIRS):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                res = _run(roots[side], workload, args.first_seed + i, spec["run_seconds"])
                failed[side] += res["failed"]
                for name in metrics:
                    values[side][name].append(res["metrics"][name]["value"])
        for name, m in metrics.items():
            base, head = values["base"][name], values["head"][name]
            v, won = verdict(base, head, m["better"], m["bound"])
            rows.append({"workload": workload, "metric": name, "unit": m["unit"],
                         "base": _quartiles(base), "head": _quartiles(head),
                         "won": won, "verdict": v, "base_runs": base, "head_runs": head})
    print(f"base {args.base}  head {args.head}  {PAIRS} pairs x {spec['run_seconds']} s  "
          f"failed jobs: base {failed['base']}, head {failed['head']}")
    print(f"{'workload':<12} {'metric':<12} {'base median [q1, q3]':>34} "
          f"{'head median [q1, q3]':>34} {'won':>5}  verdict")
    for r in rows:
        b, h = r["base"], r["head"]
        print(f"{r['workload']:<12} {r['metric']:<12} "
              f"{b[1]:>12.5g} [{b[0]:.5g}, {b[2]:.5g}] {r['unit']:<4}"
              f"{h[1]:>12.5g} [{h[0]:.5g}, {h[2]:.5g}] {r['unit']:<4}"
              f"{r['won']:>5.2f}  {r['verdict']}")
    out = os.path.join(REPO, ".bench_results", "compare.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump({"base": args.base, "head": args.head, "failed": failed, "rows": rows}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
