"""Core model: graphs of labeled types and aspects, paths, facts, specifications.

A specification presents a category by generators and relations: the graph
carries the vocabulary (types as nodes, aspects as edges, every aspect read
as a total function), and each fact declares two parallel paths equal.
Values are immutable after construction; types and aspects are identified by
their id string, labels are display metadata and never participate in
equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

from .errors import CompositionError, OlogError

#: Modifier names an aspect may carry.
INJECTIVE = "injective"
SURJECTIVE = "surjective"
MODIFIERS = frozenset({INJECTIVE, SURJECTIVE})


@dataclass(frozen=True)
class TypeNode:
    id: str
    label: str = ""
    # style-lint results are derived metadata, not part of the value
    lint_flags: frozenset[str] = field(default=frozenset(), compare=False)


@dataclass(frozen=True)
class Aspect:
    id: str
    src: str
    tgt: str
    label: str = ""
    modifiers: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Graph:
    """Finite directed multigraph of types and aspects.

    Types and aspects are kept sorted by id so that serialization, printing,
    and diffs are deterministic. Duplicate ids are representable (so that
    validation can report them) but indexing resolves to the first occurrence.
    """

    types: tuple[TypeNode, ...] = ()
    aspects: tuple[Aspect, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "types", tuple(sorted(self.types, key=lambda t: t.id)))
        object.__setattr__(self, "aspects", tuple(sorted(self.aspects, key=lambda a: a.id)))

    @cached_property
    def type_by_id(self) -> dict[str, TypeNode]:
        out: dict[str, TypeNode] = {}
        for t in self.types:
            out.setdefault(t.id, t)
        return out

    @cached_property
    def aspect_by_id(self) -> dict[str, Aspect]:
        out: dict[str, Aspect] = {}
        for a in self.aspects:
            out.setdefault(a.id, a)
        return out

    @cached_property
    def aspects_from(self) -> dict[str, tuple[Aspect, ...]]:
        """Outgoing aspects per type id, in id order."""
        out: dict[str, list[Aspect]] = {t.id: [] for t in self.types}
        for a in self.aspects:
            out.setdefault(a.src, []).append(a)
        return {k: tuple(v) for k, v in out.items()}

    def has_type(self, type_id: str) -> bool:
        return type_id in self.type_by_id

    def has_aspect(self, aspect_id: str) -> bool:
        return aspect_id in self.aspect_by_id


class Path(NamedTuple):
    """A composable sequence of aspect ids starting at ``source``.

    The empty sequence is the identity path at ``source``. A path is the
    tuple ``(source, edges)``: hashing, equality and order are tuple's own.
    ``len`` counts edges, so an identity path is falsy.
    """

    source: str
    edges: tuple[str, ...] = ()

    @property
    def is_identity(self) -> bool:
        return not self.edges

    def __len__(self) -> int:
        return len(self.edges)


def _make_path(cls, iterable) -> Path:
    # namedtuple's own _make, and so _replace, counts fields with len(),
    # which counts edges on a path.
    result = tuple.__new__(cls, iterable)
    if tuple.__len__(result) != 2:
        raise TypeError(f"Expected 2 arguments, got {tuple.__len__(result)}")
    return result


Path._make = classmethod(_make_path)


def identity_path(type_id: str) -> Path:
    return Path(type_id, ())


def path_errors(graph: Graph, path: Path) -> list[str]:
    """All reasons ``path`` is not well formed over ``graph`` (empty if fine)."""
    errs: list[str] = []
    if not graph.has_type(path.source):
        errs.append(f"path source '{path.source}' is not a type")
        return errs
    at = path.source
    for eid in path.edges:
        asp = graph.aspect_by_id.get(eid)
        if asp is None:
            errs.append(f"path mentions unknown aspect '{eid}'")
            return errs
        if asp.src != at:
            errs.append(
                f"aspect '{eid}' starts at '{asp.src}' but the path has reached '{at}'"
            )
            return errs
        at = asp.tgt
    return errs


def path_target(graph: Graph, path: Path) -> str:
    """Target type of a well-formed path (its source if it is an identity)."""
    errs = path_errors(graph, path)
    if errs:
        raise OlogError(errs[0])
    if path.is_identity:
        return path.source
    return graph.aspect_by_id[path.edges[-1]].tgt


def compose_paths(graph: Graph, p: Path, q: Path) -> Path:
    """Concatenate two paths, p first then q.

    Raises :class:`CompositionError` naming both types when the target of
    ``p`` is not the source of ``q``. Identity paths are two-sided units.
    """
    tgt = path_target(graph, p)
    if tgt != q.source:
        raise CompositionError(
            f"cannot compose: first path ends at '{tgt}', second starts at '{q.source}'"
        )
    return Path(p.source, p.edges + q.edges)


def format_path(path: Path) -> str:
    if path.is_identity:
        return f"id({path.source})"
    return ";".join(path.edges)


class Fact(NamedTuple):
    """A declared equation between two parallel paths: the tuple ``(lhs, rhs)``."""

    lhs: Path
    rhs: Path


def format_fact(fact: Fact) -> str:
    return f"{format_path(fact.lhs)} = {format_path(fact.rhs)}"


def fact_errors(graph: Graph, fact: Fact) -> list[str]:
    errs = path_errors(graph, fact.lhs) + path_errors(graph, fact.rhs)
    if errs:
        return errs
    if fact.lhs.source != fact.rhs.source:
        errs.append(
            f"fact sides start at different types: "
            f"'{fact.lhs.source}' vs '{fact.rhs.source}'"
        )
        return errs
    lt = path_target(graph, fact.lhs)
    rt = path_target(graph, fact.rhs)
    if lt != rt:
        errs.append(f"fact sides end at different types: '{lt}' vs '{rt}'")
    return errs


@dataclass(frozen=True)
class Specification:
    """A graph plus declared facts plus limit/colimit annotations.

    Facts and sketch declarations are deduplicated and canonically ordered
    at construction, declarations by their ``kind`` and then by value. The
    ``name`` is display metadata used by the text format.
    """

    graph: Graph
    facts: tuple[Fact, ...] = ()
    sketch: tuple = ()
    name: str = "olog"

    def __post_init__(self):
        object.__setattr__(self, "facts", tuple(sorted(set(self.facts))))
        sketch = sorted(set(self.sketch), key=lambda d: (d.kind, d))
        object.__setattr__(self, "sketch", tuple(sketch))


def validate_specification(spec: Specification) -> list[str]:
    """Diagnose a specification: dangling endpoints, ill-typed facts, duplicate ids.

    Returns a list of human-readable problems; empty exactly when the graph
    and fact invariants all hold. Never raises: these are diagnostics.
    """
    g = spec.graph
    problems: list[str] = []

    seen_types: set[str] = set()
    for t in g.types:
        if t.id in seen_types:
            problems.append(f"duplicate type id '{t.id}'")
        seen_types.add(t.id)
        if not t.label:
            problems.append(f"type '{t.id}' has an empty label")

    seen_aspects: set[str] = set()
    for a in g.aspects:
        if a.id in seen_aspects:
            problems.append(f"duplicate aspect id '{a.id}'")
        seen_aspects.add(a.id)
        if a.id in seen_types:
            problems.append(f"id '{a.id}' is used for both a type and an aspect")
        if a.src not in g.type_by_id:
            problems.append(f"aspect '{a.id}' has dangling source '{a.src}'")
        if a.tgt not in g.type_by_id:
            problems.append(f"aspect '{a.id}' has dangling target '{a.tgt}'")
        bad = a.modifiers - MODIFIERS
        if bad:
            problems.append(f"aspect '{a.id}' has unknown modifiers {sorted(bad)}")

    for fact in spec.facts:
        for msg in fact_errors(g, fact):
            problems.append(f"fact {format_fact(fact)}: {msg}")

    return problems


def enumerate_paths(graph: Graph, max_len: int) -> tuple[Path, ...]:
    """All well-formed paths of length at most ``max_len``.

    Deterministic order: by source id, then by length, then lexicographically
    by edge ids. Identity paths (length 0) are included for every type.
    """
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    out: list[Path] = []
    for src in (t.id for t in graph.types):
        level: list[tuple[Path, str]] = [(identity_path(src), src)]
        out.append(level[0][0])
        for _ in range(max_len):
            nxt: list[tuple[Path, str]] = []
            for path, at in level:
                for a in graph.aspects_from.get(at, ()):
                    nxt.append((Path(src, path.edges + (a.id,)), a.tgt))
            level = nxt
            out.extend(p for p, _ in level)
    return tuple(dict.fromkeys(out))


class UnionFind:
    """Disjoint sets over a fixed universe with full path compression.

    The root of every class is its least member, so representatives do not
    depend on union order.
    """

    __slots__ = ("parent",)

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True

    def classes(self) -> dict:
        """Members per root, both in the order the universe was given."""
        groups: dict = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return groups


def relation_to_span(
    graph: Graph, name: str, legs: Sequence[tuple[str, str]]
) -> tuple[Graph, TypeNode]:
    """Encode an n-ary relation as a span: a fresh apex type with one aspect per role.

    ``legs`` is a sequence of (role label, target type id) pairs. Returns the
    extended graph and the apex node. Ids are derived from the relation name
    and role labels, uniquified against existing ids.
    """
    if not legs:
        raise OlogError("a relation needs at least one leg")
    for _, tid in legs:
        if not graph.has_type(tid):
            raise OlogError(f"unknown leg type '{tid}'")

    taken = set(graph.type_by_id) | set(graph.aspect_by_id)

    def fresh(base: str) -> str:
        # Ids are ASCII (see ``dsl``): every other character becomes ``_``.
        ident = "".join(c if c.isascii() and c.isalnum() else "_" for c in base) or "x"
        if ident[0].isdigit():
            ident = "_" + ident
        cand, n = ident, 2
        while cand in taken:
            cand = f"{ident}_{n}"
            n += 1
        taken.add(cand)
        return cand

    apex = TypeNode(id=fresh(name), label=name)
    new_aspects = [
        Aspect(id=fresh(role), src=apex.id, tgt=tid, label=role) for role, tid in legs
    ]
    return Graph(graph.types + (apex,), graph.aspects + tuple(new_aspects)), apex
