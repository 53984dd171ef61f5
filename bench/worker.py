"""One workload in one fresh process; started by ``run.py``, not by hand.

The worker generates the workload's inputs from the seed, writes its files,
imports ``olog`` from the checkout's ``src`` and runs one warm-up job: that
is the set-up time. The reference computation of ``common.reference`` is
timed once before the set-up and once after it (neither counts in the
set-up time), so that ``run.py`` can scale the set-up time to the
reference's speed. Unless ``--setup-only`` is given it then runs a closed
loop with one client for ``--seconds``: a job (the workload's fixed sequence
of library calls), the fixed reference computation of ``common.reference``,
then the workload's ``olog`` commands one at a time as subprocesses, and
again. Every answer is checked against the workload's closed forms after
the timed region. The last line of standard output is one JSON object for
``run.py``.

With ``--trace 1`` each round runs the job twice, once plain and once with
a span around every library call, the two taking turns going first, then
the CLI commands inside spans and a ``olog check`` start-up probe. The
spans are written to ``.bench_out`` at the end together with the per-layer
numbers derived from them.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

from common import Tracer, median, reference  # noqa: E402
from data import Data  # noqa: E402
from network import Network  # noqa: E402
from theory import Theory  # noqa: E402

WORKLOADS = {w.name: w for w in (Theory, Data, Network)}
MODULES = ("core", "dsl", "entail", "instances", "sketch", "flow", "system", "sqlgen", "cli")
ROOT = Path(__file__).resolve().parent.parent
CLI_TIMEOUT = 60
# The interpreter-plus-import floor under every CLI time.
STARTUP_ARGV = ["check", str(ROOT / "fixtures" / "employee.olog")]


def _ok(name: str, stdout: str) -> bool:
    return stdout.startswith("ok: ")


def import_olog():
    """The library's modules, imported from this checkout's ``src`` only."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import olog
    from olog import core, dsl, entail, flow, instances, sketch, sqlgen, system

    if Path(olog.__file__).resolve().parent != (src / "olog").resolve():
        raise RuntimeError(f"imported olog from {olog.__file__}, not from {src}")
    return types.SimpleNamespace(
        core=core, dsl=dsl, entail=entail, flow=flow, instances=instances,
        sketch=sketch, sqlgen=sqlgen, system=system,
    )


class Tally:
    """Operations attempted and failed, with the names of the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, name: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{name}: {detail or 'wrong answer'}")


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_job(wl, tr, tally: Tally, n_ops: int):
    """One job, timed, then checked; returns (seconds, results or None)."""
    start = time.perf_counter()
    try:
        with tr.span("job"):
            results = wl.job(tr)
    except Exception as exc:  # the library failed: every operation of the job counts
        for _ in range(n_ops):
            tally.add("job", False, repr(exc))
        return time.perf_counter() - start, None
    elapsed = time.perf_counter() - start
    try:
        checks = wl.check(results)
    except Exception as exc:  # malformed results: the job's operations all fail
        for _ in range(n_ops):
            tally.add("check", False, repr(exc))
        return elapsed, None
    for name, ok in checks:
        tally.add(name, ok)
    return elapsed, results


def run_cli(argv: list[str], cwd: Path) -> tuple[float, subprocess.CompletedProcess]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "olog", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT,
    )
    return time.perf_counter() - start, proc


def run_command(tr, tally: Tally, name: str, argv: list[str], want: int, check, cwd: Path) -> float:
    """One ``olog`` command as a subprocess, in a span; returns its wall time."""
    with tr.span(name):
        try:
            elapsed, proc = run_cli(argv, cwd)
        except subprocess.TimeoutExpired:
            tally.add(name, False, f"no exit within {CLI_TIMEOUT} s")
            return float(CLI_TIMEOUT)
    ok = proc.returncode == want and check(name, proc.stdout)
    tally.add(name, ok, f"exit {proc.returncode}, stderr {proc.stderr[-300:]!r}")
    return elapsed


def run_cli_round(wl, tr, tally: Tally, cwd: Path) -> float:
    """The workload's command list, one subprocess at a time; returns its wall time."""
    return sum(
        run_command(tr, tally, name, argv, want, wl.check_cli, cwd)
        for name, argv, want in wl.cli()
    )


def per_layer(tr: Tracer, counts: dict, times: dict) -> dict:
    """Medians over rounds of each layer's time, self time and counts."""
    rounds = sorted({s[4] for s in tr.spans})
    by_round: dict[str, dict] = {}
    self_by_round: dict[str, dict] = {}
    for (name, start, end, _, job), own in zip(tr.spans, tr.self_times()):
        by_round.setdefault(name, {}).setdefault(job, 0.0)
        by_round[name][job] += end - start
        module = name.split(".")[0] if "." in name else "bench"
        self_by_round.setdefault(module, {}).setdefault(job, 0.0)
        self_by_round[module][job] += own

    def med(table: dict, key: str) -> float:
        per = table.get(key, {})
        return median([per.get(j, 0.0) for j in rounds])

    out = {f"{name}_s": med(by_round, name) for name in by_round if "." in name}
    out.update({f"{m}.self_s": med(self_by_round, m) for m in MODULES + ("bench",)})
    out.update(counts)
    load = out.get("instances.load_instances_s", 0.0)
    out["instances.rows_per_s"] = counts.get("instances.rows_loaded", 0) / load if load else 0.0
    pairs = counts.get("entail.candidate_pairs", 0)
    out["entail.yield"] = counts.get("entail.equations", 0) / pairs if pairs else 0.0
    legs = counts.get("sketch.leg_pairs", 0)
    out["sketch.pullback_yield"] = counts.get("sketch.pullback_rows", 0) / legs if legs else 0.0
    out.update({key: median(values) for key, values in times.items()})
    # Each round's traced job less its plain one: the pair runs back to back,
    # so the CPU speed's drift between rounds cancels.
    out["trace.overhead_s"] = median(
        [t - p for t, p in zip(times["trace.job_traced_s"], times["job_s"])]
    )
    return out


def measure(wl, args, tally: Tally, n_ops: int) -> dict:
    """The closed loop: rounds of job then CLI commands until the deadline."""
    plain, tr = Tracer(False), Tracer(bool(args.trace))
    jobs, traced, refs, cli, counts = [], [], [], [], {}
    deadline = time.perf_counter() + args.seconds
    round_no = 0
    while round_no == 0 or time.perf_counter() < deadline:
        tr.job = round_no
        # The plain and the traced job take turns going first, and no job's
        # results outlive it, so both start from the same heap.
        turns = [False, True] if args.trace else [False]
        for traced_turn in turns if round_no % 2 == 0 else turns[::-1]:
            elapsed, results = run_job(wl, tr if traced_turn else plain, tally, n_ops)
            (traced if traced_turn else jobs).append(elapsed)
            if traced_turn and results is not None:
                counts = wl.counts(results)
            results = None
        refs.append(timed(reference))
        cli.append(run_cli_round(wl, tr, tally, args.workdir))
        if args.trace:
            run_command(tr, tally, "cli.startup", STARTUP_ARGV, 0, _ok, args.workdir)
        round_no += 1
    out = {"job_s": jobs, "cli_s": cli, "ref_s": refs}
    if args.trace:
        out["per_layer"] = per_layer(tr, counts, {**out, "trace.job_traced_s": traced})
        write_trace(tr, args, out["per_layer"])
    return out


def write_trace(tr: Tracer, args, layers: dict) -> None:
    """Spans (times from process start) and per-layer numbers, to ``.bench_out``."""
    spans = [
        {"name": n, "start": s - _T0, "end": e - _T0, "self": own, "parent": p, "job": j}
        for (n, s, e, p, j), own in zip(tr.spans, tr.self_times())
    ]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace_{args.workload}_seed{args.seed}.json").write_text(
        json.dumps(
            {"workload": args.workload, "seed": args.seed, "per_layer": layers, "spans": spans},
            indent=1,
        ),
        encoding="utf-8",
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    ref_before = timed(reference)
    args.workdir.mkdir(parents=True)
    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    wl.bind(import_olog())
    tally = Tally()
    run_job(wl, Tracer(False), tally, 1)
    n_ops = tally.attempted  # the checks of one job; 1 if the warm-up raised
    setup_s = time.perf_counter() - _T0 - ref_before
    result = {"setup_s": setup_s, "setup_ref_s": (ref_before + timed(reference)) / 2}

    if not args.setup_only:
        result.update(measure(wl, args, tally, n_ops))
    result.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
