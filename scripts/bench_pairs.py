#!/usr/bin/env python3
"""Alternate benchmark runs of a git revision and of this checkout, in pairs.

    python3 scripts/bench_pairs.py --against REV --workload theory --pairs 10 --seconds 30

REV is extracted with ``git archive`` into a temporary directory, and the
checkout, uncommitted changes included, is copied beside it without
``.git`` and without bytecode caches: a command that finds a current
``.pyc`` skips compiling, so both sides must start without one. Pair i
runs ``bench/run.py --workload W --seed SEED+i --seconds S --trace 0`` once
in each tree, REV first in even pairs and the checkout first in odd ones,
so a drift in machine speed hits both sides alike. Each run's metrics go to
standard error as it finishes. Then, for each end-to-end metric of
``BENCHMARK.json``, standard output gets each side's median and quartiles,
the number of pairs the checkout won (ties count for neither side), and
whether that is a gain: the checkout won at least nine pairs in ten and its
median beats REV's by more than the distance between REV's quartiles.

The exit code is 1 when any run reports ``"correct": false`` or fails to
report at all, and 0 otherwise. Nothing under ``bench/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from revision import ROOT, extract


def bench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``bench/run.py`` run in ``tree``: its final JSON line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {"correct": False, "metrics": {}}
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", required=True, metavar="REV", help="revision to compare with")
    ap.add_argument("--workload", required=True, choices=("theory", "data", "network"))
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be positive")

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    runs: dict[str, list[dict]] = {"rev": [], "here": []}
    with tempfile.TemporaryDirectory() as work:
        trees = {"rev": Path(work) / "rev", "here": Path(work) / "here"}
        trees["rev"].mkdir()
        extract(args.against, trees["rev"])
        shutil.copytree(ROOT, trees["here"], ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".bench_work", ".hypothesis", ".pytest_cache"))
        for i in range(args.pairs):
            seed = args.seed + i
            for side in ("rev", "here") if i % 2 == 0 else ("here", "rev"):
                result = bench(trees[side], args.workload, seed, args.seconds)
                runs[side].append(result)
                shown = " ".join(
                    f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()
                )
                print(f"pair {i} seed {seed} {side}: correct={result['correct']} {shown}",
                      file=sys.stderr, flush=True)

    print(f"{args.workload}: {args.pairs} pairs of {args.seconds} s, "
          f"{args.against} against the checkout; median [q1, q3]")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        try:
            rev = [r["metrics"][name]["value"] for r in runs["rev"]]
            here = [r["metrics"][name]["value"] for r in runs["here"]]
        except KeyError:
            print(f"  {name:12s} missing from some run")
            continue
        wins = sum((h < r) if lower else (h > r) for r, h in zip(rev, here))
        (rq1, rmed, rq3), (hq1, hmed, hq3) = quartiles(rev), quartiles(here)
        gain = (hmed < rmed if lower else hmed > rmed) and abs(hmed - rmed) > rq3 - rq1
        gain = gain and wins >= 0.9 * args.pairs
        print(f"  {name:12s} {m['unit']:4s} rev {rmed:.4g} [{rq1:.4g}, {rq3:.4g}]  "
              f"here {hmed:.4g} [{hq1:.4g}, {hq3:.4g}]  "
              f"wins {wins}/{args.pairs}  gain {'yes' if gain else 'no'}")
    return 0 if all(r["correct"] for side in runs.values() for r in side) else 1


if __name__ == "__main__":
    sys.exit(main())
