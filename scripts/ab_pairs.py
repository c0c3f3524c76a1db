#!/usr/bin/env python3
"""Compare two built `cgmio-benchmark` binaries in alternating pairs.

    python3 scripts/ab_pairs.py PARENT_BIN CHANGE_BIN --workload W \\
        [--pairs N] [--seed S] [--seconds T] [--smoke] [--scratch DIR] [--json FILE]

Runs N pairs of `BIN run --workload W --trace 0 --allow-tmpfs`, the
parent first in even pairs and the change first in odd ones, and reads
each run's closing JSON line. For every end-to-end metric in
BENCHMARK.json it prints each side's median and quartiles, the pairs each
side won (ties count for neither) and a verdict:

  gain        at least 10 pairs, the change won 9/10 of them and the medians
              differ by more than the parent's interquartile range (IQR)
  loss        the same rule with the sides swapped
  unresolved  the parent's own IQR exceeds the metric's bound
  ok / OVER   the change's median is within / beyond the bound of the parent's

Exits 1 if a run failed or reported `correct: false`. Standard library only.
"""
import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def quartiles(xs):
    return (xs[0],) * 3 if len(xs) < 2 else statistics.quantiles(xs, n=4, method="inclusive")


def run(binary, args, scratch, side):
    cmd = [binary, "run", "--workload", args.workload, "--seed", str(args.seed), "--trace", "0",
           "--allow-tmpfs", "--scratch", str(scratch / side), "--out-dir", str(scratch / f"{side}-out")]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if p.returncode != 0 or result is None or not result.get("correct"):
        sys.stderr.write(f"{side}: run failed (exit {p.returncode})\n{p.stderr}")
        return None
    return {k: m["value"] for k, m in result["metrics"].items()}


def verdict(metric, parent, change):
    sign = 1 if metric["better"] == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    need = 0.9 * len(parent) if len(parent) >= 10 else float("inf")
    if wins >= need and sign * (cm - pm) > p3 - p1:
        return wins, losses, "gain"
    if losses >= need and sign * (pm - cm) > p3 - p1:
        return wins, losses, "loss"
    if pm and (p3 - p1) / abs(pm) > metric["bound"]:
        return wins, losses, "unresolved"
    worse = sign * (pm - cm) / abs(pm) if pm else 0.0
    return wins, losses, "OVER" if worse > metric["bound"] else "ok"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1999)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--scratch", type=Path, help="directory for drive files (default: a temp dir)")
    ap.add_argument("--json", type=Path, help="also write every run's metrics to this file")
    args = ap.parse_args()
    catalogue = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    metrics = json.loads(catalogue.read_text())["end_to_end"]
    scratch = Path(tempfile.mkdtemp(dir=args.scratch, prefix="ab-pairs-"))
    runs = {"parent": [], "change": []}
    failed = False
    try:
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            got = {side: run(getattr(args, side), args, scratch, side) for side in order}
            if None in got.values():
                failed = True
                continue
            for side in order:
                runs[side].append(got[side])
            print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.json:
        args.json.write_text(json.dumps(runs, indent=1))
    n = len(runs["parent"])
    print(f"{args.workload} seed {args.seed}: {n} complete pairs of {args.pairs}")
    print(f"{'metric':<20} {'parent q1 / median / q3':>36} {'change q1 / median / q3':>36}"
          f" {'delta':>8} {'won p:c':>8}  verdict")
    for m in metrics:
        name = m["name"]
        if not n or any(name not in r for side in runs.values() for r in side):
            continue
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        wins, losses, v = verdict(m, parent, change)
        pq, cq = quartiles(parent), quartiles(change)
        delta = (cq[1] - pq[1]) / abs(pq[1]) * 100 if pq[1] else 0.0
        fmt = lambda q: " / ".join(f"{x:.6g}" for x in q)
        print(f"{name:<20} {fmt(pq):>36} {fmt(cq):>36} {delta:>+7.1f}% {losses:>3}:{wins:<4}  {v}")
    return 1 if failed or n == 0 else 0


if __name__ == "__main__":
    sys.exit(main())
