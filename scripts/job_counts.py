#!/usr/bin/env python3
"""Count the derived structures one benchmark job builds, round by round.

    python3 scripts/job_counts.py --workload theory --rounds 4 [--seed 1]

The workload is imported from ``bench/`` without writing bytecode there and
its job runs in this process, against ``olog`` from this checkout's ``src``,
as ``bench/run.py``'s worker runs it. Per round it prints how many path
universes were numbered (and their paths in all), class tables built (and
the states they made in all), universes filled with the states of a table
(and their ids in all), channels built, key sets sorted (and their keys in
all) and paths walked by the path rules (and their aspects in all), counted
by wrapping ``core._number``, ``entail._tabulate``, ``entail._states``,
``system.optimal_channel``, the ``sorted`` of the modules that sort a
diagram's key sets and ``core.path_target`` in every module that imports it. A job that derives
each structure once per value it builds repeats the same counts in every
round; what the first round builds and later rounds do not is what a
value held by the workload across rounds keeps, and it is listed by name.

The exit code is 1 if any round after the first differs from the second or
any answer of the job is wrong, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import builtins
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SORTING = ("instances", "sketch", "flow", "sqlgen", "cli")
WALK = "path_target"


def instrument(olog, events: list) -> None:
    """Append one ``(kind, name, size)`` event per structure built."""
    core, entail, system = olog.core, olog.entail, olog.system

    number = core._number

    def numbered(graph, bound):
        universe = number(graph, bound)
        types = ",".join(t.id for t in graph.types)
        events.append(("universe", f"graph ({types}) at bound {bound}", len(universe.paths)))
        return universe

    core._number = numbered

    tabulate = entail._tabulate

    def tabulated(spec, bound):
        table = tabulate(spec, bound)
        events.append(("table", f"bound {bound}", len(table.root)))
        return table

    entail._tabulate = tabulated

    states = entail._states

    def filled(spec, bound):
        universe, state = states(spec, bound)
        events.append(("fill", f"bound {bound}", len(state)))
        return universe, state

    entail._states = filled

    channel = system.optimal_channel

    def built(ds):
        events.append(("channel", ",".join(ds.shape.nodes), 1))
        return channel(ds)

    system.optimal_channel = built

    def counted_sorted(iterable, /, **kwargs):
        if isinstance(iterable, frozenset):  # a diagram's key set
            events.append(("keys", "key set", len(iterable)))
        return builtins.sorted(iterable, **kwargs)

    for name in SORTING:
        __import__(f"olog.{name}")
        sys.modules[f"olog.{name}"].sorted = counted_sorted

    walk = getattr(core, WALK)

    def walked(graph, path):
        events.append(("walk", "path", len(path)))
        return walk(graph, path)

    for name, module in list(sys.modules.items()):
        if name.startswith("olog") and getattr(module, WALK, None) is walk:
            setattr(module, WALK, walked)


KINDS = (
    ("universe", "universes", "paths"),
    ("table", "class tables", "states"),
    ("fill", "fills", "ids"),
    ("channel", "channels", None),
    ("keys", "key sets sorted", "keys"),
    ("walk", "path walks", "aspects"),
)


def tally(events: list) -> dict:
    out = {}
    for kind, _, size in events:
        n, total = out.get(kind, (0, 0))
        out[kind] = (n + 1, total + size)
    return {kind: out.get(kind, (0, 0)) for kind, _, _ in KINDS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("data", "network", "theory"))
    ap.add_argument("--rounds", type=int, default=4)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2")

    sys.dont_write_bytecode = True  # leave bench/ as it is
    sys.path.insert(0, str(ROOT / "bench"))
    from worker import WORKLOADS, Tracer, import_olog

    olog = import_olog()
    events: list = []
    with tempfile.TemporaryDirectory() as work:
        (Path(work) / "work").mkdir()
        wl = WORKLOADS[args.workload](args.seed, Path(work) / "work")
        wl.bind(olog)
        instrument(olog, events)
        rounds, wrong = [], []
        for _ in range(args.rounds):
            events.clear()
            results = wl.job(Tracer(False))
            rounds.append((tally(events), list(events)))
            wrong += [name for name, ok in wl.check(results) if not ok]

    head = ["round"] + [
        f"{label} ({unit})" if unit else label for _, label, unit in KINDS
    ]
    print(" | ".join(head))
    for i, (counts, _) in enumerate(rounds, start=1):
        cells = [
            f"{n} ({total:,})" if unit else str(n)
            for (n, total), (_, _, unit) in zip(counts.values(), KINDS)
        ]
        print(" | ".join([str(i)] + cells))
    later = list(rounds[1][1])
    for event in rounds[0][1]:
        if event in later:
            later.remove(event)
        else:
            print("held across rounds, built in round 1 only: {}: {}, size {}".format(*event))
    unequal = [i for i, (c, _) in enumerate(rounds[2:], start=3) if c != rounds[1][0]]
    for i in unequal:
        print(f"round {i} differs from round 2")
    for name in sorted(set(wrong)):
        print(f"wrong answer: {name}")
    return 1 if unequal or wrong else 0


if __name__ == "__main__":
    sys.exit(main())
