"""Tabular instance data checked as a functor to finite sets.

A key diagram assigns a finite set of keys to each type and a total function
to each aspect. Keys are opaque text tokens compared by exact string match.
Data lives in one CSV file per type: header ``Id`` followed by one column per
outgoing aspect, columns in canonical (sorted) aspect order.
"""

from __future__ import annotations

import csv
from pathlib import Path as FsPath
from typing import Mapping

from .core import Fact, Graph, Path, Specification, path_universe, record
from .errors import EvaluationError, InstanceLoadError


@record
class KeyDiagram:
    """Finite key set per type plus a total key function per aspect.

    Treated as immutable after construction; helpers that "modify" a diagram
    return a new one. Equality compares contents; like its mappings, a
    diagram is not hashable.
    """

    sets: Mapping[str, frozenset[str]]
    funcs: Mapping[str, Mapping[str, str]]

    def keys(self, t: str) -> tuple[str, ...]:
        """The keys of type ``t`` sorted, none for a type without a set. The
        tuple is sorted once and kept while ``sets[t]`` is the same object."""
        keys, memo = self.sets.get(t, ()), self.__dict__.setdefault("_sorted", {})
        if t not in memo or memo[t][0] is not keys:
            memo[t] = (keys, tuple(sorted(keys)))
        return memo[t][1]


def key_diagram(sets: Mapping[str, object], funcs: Mapping[str, Mapping[str, str]]) -> KeyDiagram:
    """Normalize plain dicts into a KeyDiagram."""
    return KeyDiagram(
        sets={t: frozenset(ks) for t, ks in sets.items()},
        funcs={a: dict(f) for a, f in funcs.items()},
    )


def _columns(rows: list[list[str]], width: int) -> tuple[set[str], list[tuple]] | None:
    """The Ids and the columns of a table's non-blank rows, or None if a row is faulty.

    A row is faulty if it has the wrong width, an empty or repeated Id, or an
    empty cell; only then must the rows be read one at a time for diagnostics.
    """
    body = list(filter(any, rows))  # a blank row has no non-empty cell
    if not body:
        return set(), [()] * width
    if set(map(len, body)) != {width}:
        return None
    columns = list(zip(*body))
    ids = set(columns[0])
    if len(ids) != len(body) or any("" in col for col in columns):
        return None
    return ids, columns


def load_tables(
    directory: str | FsPath,
    spec: Specification,
    optional_types: frozenset[str] = frozenset(),
    optional_aspects: frozenset[str] = frozenset(),
) -> tuple[KeyDiagram, list[str]]:
    """Read CSV tables without raising; returns the diagram and its problems.

    Optional types may have no table (their key set is empty) and optional
    aspects may have no column and no closure requirement; synthesis uses
    this to load the inputs of a construction whose outputs do not exist yet.
    """
    base = FsPath(directory)
    g = spec.graph
    problems: list[str] = []
    sets: dict[str, frozenset[str]] = {}
    funcs: dict[str, dict[str, str]] = {a.id: {} for a in g.aspects}

    for t in g.types:
        table = base / f"{t.id}.csv"
        out_aspects = [a.id for a in g.aspects_from.get(t.id, ())]
        if not table.exists():
            if t.id not in optional_types:
                problems.append(f"missing table '{table.name}' for type '{t.id}'")
            sets[t.id] = frozenset()
            continue
        try:
            with open(table, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
        # ValueError: not UTF-8; csv.Error: a cell over the field size limit
        except (OSError, ValueError, csv.Error) as exc:
            problems.append(f"cannot read table '{table.name}': {exc}")
            sets[t.id] = frozenset()
            continue
        if not rows:
            problems.append(f"table '{table.name}' has no header row")
            sets[t.id] = frozenset()
            continue
        header = rows[0]
        expected = ["Id"] + out_aspects
        required = ["Id"] + [a for a in out_aspects if a not in optional_aspects]
        if header != expected and header != required:
            problems.append(
                f"table '{table.name}' has header {header}, expected {expected}"
            )
            sets[t.id] = frozenset()
            continue
        present = header[1:]
        clean = _columns(rows[1:], len(header))
        if clean is not None:
            ids, columns = clean
            del rows  # the columns hold the cells
            for aid, col in zip(present, columns[1:]):
                funcs[aid].update(zip(columns[0], col))
            sets[t.id] = frozenset(ids)
            continue
        keys: set[str] = set()
        for lineno, row in enumerate(rows[1:], start=2):
            if not row or all(cell == "" for cell in row):
                continue
            if len(row) != len(header):
                problems.append(
                    f"table '{table.name}' row {lineno}: expected "
                    f"{len(header)} cells, got {len(row)}"
                )
                continue
            key = row[0]
            if key == "":
                problems.append(f"table '{table.name}' row {lineno}: empty Id cell")
                continue
            if key in keys:
                problems.append(f"table '{table.name}': duplicate Id '{key}'")
                continue
            keys.add(key)
            for col, aid in enumerate(present, start=1):
                cell = row[col]
                if cell == "":
                    problems.append(
                        f"table '{table.name}' row '{key}': empty cell in column '{aid}'"
                    )
                else:
                    funcs[aid][key] = cell
        sets[t.id] = frozenset(keys)

    for a in g.aspects:
        if a.id in optional_aspects:
            continue
        tgt_keys = sets.get(a.tgt, frozenset())
        if tgt_keys.issuperset(funcs[a.id].values()):
            continue
        for k, v in sorted(funcs[a.id].items()):
            if v not in tgt_keys:
                problems.append(
                    f"dangling key: table '{a.src}.csv' row '{k}' column '{a.id}' "
                    f"refers to '{v}', not an Id of '{a.tgt}.csv'"
                )

    return KeyDiagram(sets=sets, funcs=funcs), problems


def load_instances(directory: str | FsPath, spec: Specification) -> KeyDiagram:
    """Load one CSV table per type and validate totality and key closure.

    Raises :class:`InstanceLoadError` carrying every problem found: missing
    table, wrong or missing aspect columns, duplicate ids, empty cells, and
    dangling keys (reported with table, row id, and column).
    """
    d, problems = load_tables(directory, spec)
    if problems:
        raise InstanceLoadError(problems)
    return d


def eval_column(d: KeyDiagram, path: Path, keys) -> list[str]:
    """Evaluate a path at each of ``keys``, one aspect function at a time.

    Returns the values in the order of ``keys``; the identity path returns
    the keys. Raises :class:`EvaluationError` naming the first key that is
    not in the source set.
    """
    vals = list(keys)
    source = d.sets.get(path.source, frozenset())
    if not source.issuperset(vals):
        bad = next(k for k in vals if k not in source)
        raise EvaluationError(f"key '{bad}' is not in the set of '{path.source}'")
    for eid in path.edges:
        vals = list(map(d.funcs[eid].__getitem__, vals))
    return vals


def eval_path(d: KeyDiagram, path: Path, key: str) -> str:
    """Evaluate a path at one key: :func:`eval_column` on that key alone."""
    return eval_column(d, path, (key,))[0]


@record
class Counterexample:
    fact: Fact
    key: str
    lhs_result: str
    rhs_result: str


@record
class FactCheck:
    fact: Fact
    counterexamples: tuple[Counterexample, ...]

    @property
    def satisfied(self) -> bool:
        return not self.counterexamples


@record
class SatisfactionReport:
    checks: tuple[FactCheck, ...]

    @property
    def satisfied(self) -> bool:
        return all(c.satisfied for c in self.checks)

    @property
    def counterexamples(self) -> tuple[Counterexample, ...]:
        return tuple(ce for c in self.checks for ce in c.counterexamples)


def satisfies_fact(d: KeyDiagram, fact: Fact) -> FactCheck:
    """Check one declared equation pointwise over the source key set.

    The two sides are compared over the unsorted keys; only the
    counterexamples are sorted by key. A fact over an empty source set is
    vacuously satisfied.
    """
    keys = d.sets.get(fact.lhs.source, frozenset())
    lhs = eval_column(d, fact.lhs, keys)
    rhs = eval_column(d, fact.rhs, keys)
    if lhs == rhs:
        return FactCheck(fact, ())
    bad = sorted(t for t in zip(keys, lhs, rhs) if t[1] != t[2])
    return FactCheck(fact, tuple(Counterexample(fact, *t) for t in bad))


def satisfies_spec(d: KeyDiagram, spec: Specification) -> SatisfactionReport:
    return SatisfactionReport(tuple(satisfies_fact(d, f) for f in spec.facts))


def intent(d: KeyDiagram, graph: Graph, bound: int) -> tuple[Fact, ...]:
    """All bounded equations the key diagram satisfies.

    A diagram models a specification exactly when the specification's bounded
    facts are contained in this set.
    """
    from .entail import _check_bound, _pairs_within

    # Two parallel paths agree exactly when their value vectors over the
    # source's unsorted keys agree; each vector is one step from its parent's.
    u = path_universe(graph, _check_bound(bound))
    vectors: list[tuple[str, ...]] = []
    for (src, edges), q in zip(u.paths, u.parent):
        if edges:
            prefix = vectors[q]
            vectors.append(tuple(map(d.funcs[edges[-1]].__getitem__, prefix)) if prefix else ())
        else:
            vectors.append(tuple(d.sets.get(src, ())))
    keys = [(p.source, t, v) for p, t, v in zip(u.paths, u.end, vectors)]
    return _pairs_within(u, keys, bound)
