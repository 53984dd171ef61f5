"""Benchmark of the olog library and CLI on seeded synthetic workloads.

Usage, from the root of a checkout::

    python3 bench/run.py --workload theory|data|network --seed N --seconds S --trace 0|1

Each workload runs in fresh child processes (``bench/worker.py``) that
import ``olog`` from this checkout's ``src``. Two children only set up (make
the inputs, write them, import ``olog``, run one warm-up job); a third sets
up the same way and then measures for ``--seconds`` as a closed loop with one
client. ``peak_rss_mb`` is the largest resident set among the children and
their ``olog`` subprocesses. ``job_ref`` and ``cli_ref`` are the medians
over the measuring child's rounds of the job's and the CLI commands' wall
time divided by that of the fixed reference computation
(``common.reference``) timed next to them. ``setup_s`` is the median of the
three set-ups, each divided by the reference timed right after it in the
same child and multiplied by ``common.REF_SECONDS``: seconds at the speed
of the machine the baseline was recorded on. On a shared machine whose CPU
speed drifts for minutes at a time the raw seconds vary by a quarter from
run to run, while these ratios hold within a few percent; the raw medians
are printed in the summary and reported by traced runs as ``job_s``,
``cli_s`` and ``ref_s``.

The last line of standard output is one JSON object: with ``--trace 0`` it
carries the end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` the
per-layer ones. A summary for people goes to standard error. The exit code
is 1 when any answer was wrong (every answer is checked against a closed
form) and 2 when the checkout has no ``src/olog`` to measure.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from common import REF_SECONDS, median

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3
SETUP_TIMEOUT = 60
MEASURE_SLACK = 90  # seconds a measuring child may run past --seconds


def worker(args, workdir: Path, setup_only: bool) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).with_name("worker.py")),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    timeout = SETUP_TIMEOUT if setup_only else args.seconds + MEASURE_SLACK
    proc = subprocess.run(
        cmd + (["--setup-only"] if setup_only else []),
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("theory", "data", "network"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "olog" / "__init__.py").is_file():
        print(f"no olog package under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        runs = [worker(args, work / f"setup{i}", True) for i in range(SETUPS - 1)]
        measured = worker(args, work / "measure", False)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    runs.append(measured)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    # Round i runs job i, reference i, then CLI round i; each is divided by the
    # mean of the two references timed on either side of it.
    ref = measured["ref_s"]
    before, after = [ref[0]] + ref[:-1], ref[1:] + [ref[-1]]
    values = {
        "setup_s": median([REF_SECONDS * r["setup_s"] / r["setup_ref_s"] for r in runs]),
        "job_ref": median([2 * t / (a + b) for t, a, b in zip(measured["job_s"], before, ref)]),
        "cli_ref": median([2 * t / (a + b) for t, a, b in zip(measured["cli_s"], ref, after)]),
        "peak_rss_mb": peak_mb,
    }
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    source = measured["per_layer"] if args.trace else values
    metrics = {
        m["name"]: {"value": source.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted
    }

    err = sys.stderr
    print(f"{args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}", file=err)
    raw = [r["setup_s"] for r in runs]
    print(f"  {len(raw)} set-ups: median {median(raw):.4g} s, "
          f"min {min(raw):.4g} s, max {max(raw):.4g} s", file=err)
    for key, what in (("job_s", "jobs"), ("cli_s", "CLI rounds"), ("ref_s", "references")):
        got = measured[key]
        print(f"  {len(got)} {what}: median {median(got):.4g} s, "
              f"min {min(got):.4g} s, max {max(got):.4g} s", file=err)
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}", file=err)
    print(f"  fail_frac {failed / attempted:.6g} ({failed} of {attempted} operations)", file=err)
    for problem in sum((r["problems"] for r in runs), []):
        print(f"  FAILED {problem}", file=err)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
