"""Steadiness check: two sets of benchmark runs of the same code, compared.

Usage, from the root of a checkout::

    python3 bench/steady.py [--trace-runs N] [--label NAME] [--out FILE]

Each set runs ``bench/run.py`` on every workload with seeds 1 to 10, for
``run_seconds`` of ``BENCHMARK.json``. For every (metric, workload) pair it
prints each set's median, its spread (the distance between the first and
third quartile as a share of the median) and whether the two sets agree
within the metric's bound: both spreads within the bound, and the two
medians apart by no more than the bound, in either direction.
``--trace-runs`` adds traced runs per workload whose per-layer numbers go
into the output file with everything else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("theory", "data", "network")
SEEDS = range(1, 11)
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace-runs", type=int, default=0)
    ap.add_argument("--label", default="")
    ap.add_argument("--out", type=Path, default=ROOT / ".bench_out" / "steady.json")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    sets = []
    for s in range(SETS):
        values: dict[str, dict[str, list[float]]] = {}
        for w in WORKLOADS:
            for seed in SEEDS:
                res = run_once(w, seed, seconds, 0)
                for name, m in res["metrics"].items():
                    values.setdefault(w, {}).setdefault(name, []).append(m["value"])
                print(f"set {s + 1} {w} seed {seed}: " + ", ".join(
                    f"{k} {v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
        sets.append(values)
    traced = {
        w: [run_once(w, seed, seconds, 1)["metrics"] for seed in SEEDS[: args.trace_runs]]
        for w in WORKLOADS
    } if args.trace_runs else {}

    summary = []
    steady = True
    print(f"\n{'metric':14s} {'workload':9s} " + " ".join(
        f"{'median' + str(i + 1):>10s} {'spread' + str(i + 1):>8s}" for i in range(SETS)
    ) + f" {'apart':>7s} {'bound':>6s} verdict")
    for m in spec["end_to_end"]:
        for w in WORKLOADS:
            stats = [spread(v[w][m["name"]]) for v in sets]
            (first, _), (second, _) = stats
            apart = abs(second - first) / first
            ok = all(sp <= m["bound"] for _, sp in stats) and apart <= m["bound"]
            steady &= ok
            summary.append({
                "metric": m["name"], "workload": w, "bound": m["bound"],
                "medians": [med for med, _ in stats], "spreads": [sp for _, sp in stats],
                "apart": apart, "agree": ok,
            })
            print(f"{m['name']:14s} {w:9s} " + " ".join(
                f"{med:10.4g} {sp:8.2%}" for med, sp in stats
            ) + f" {apart:7.2%} {m['bound']:6.0%} {'agree' if ok else 'DISAGREE'}")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({
        "label": args.label,
        "machine": {
            "cpu": cpu_model(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "system": platform.system(),
        },
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "sets": sets,
        "summary": summary,
        "traced": traced,
    }, indent=1) + "\n", encoding="utf-8")
    print(f"\nwrote {args.out}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
