"""Bounded entailment of path equations.

The equations derivable from a set of declared facts form a congruence on
paths: an equivalence per (source, target) pair that is closed under
composition on either side. Over a graph with cycles the full congruence is
infinite and the word problem is undecidable, so this engine saturates only
the finite universe of paths up to a configurable length bound. Verdicts are
therefore ``entailed`` or ``not derivable within bound``, never a claim of
non-entailment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import (
    Fact,
    Graph,
    Path,
    Specification,
    UnionFind,
    enumerate_paths,
    fact_errors,
    format_fact,
    path_target,
)
from .errors import BoundExceededError, GraphMismatchError, OlogError

DEFAULT_BOUND = 6

ENTAILED = "entailed"
NOT_DERIVABLE = "not-derivable-within-bound"


def _check_bound(bound: int) -> int:
    if bound < 1:
        raise ValueError("bound must be a positive integer")
    return bound


def check_fits(fact: Fact, bound: int, role: str) -> None:
    """Raise :class:`BoundExceededError` if a side of ``fact`` is longer than ``bound``.

    ``role`` names the fact in the message: declared, queried or translated.
    """
    if len(fact.lhs) > bound or len(fact.rhs) > bound:
        raise BoundExceededError(
            f"{role} fact '{format_fact(fact)}' has a side longer than bound {bound}",
            fact=fact,
        )


def _pairs_within(graph: Graph, keyed) -> tuple[Fact, ...]:
    """Every ordered pair of parallel paths that share a key, sorted.

    ``keyed`` yields (path, key) pairs, one per path. The answer is every
    ordered pair of parallel paths filtered to the pairs with equal keys,
    but it is built group by group, so its cost follows the pairs emitted.
    """
    groups: dict = {}
    group_of: dict[Path, list[Path]] = {}
    for p, key in keyed:
        group = group_of[p] = groups.setdefault((p.source, path_target(graph, p), key), [])
        group.append(p)
    for group in groups.values():
        group.sort()
    return tuple(Fact(p, q) for p in sorted(group_of) for q in group_of[p])


def _canon_key(path: Path):
    return (len(path.edges), path.edges, path.source)


@dataclass(frozen=True)
class Congruence:
    """Result of saturating a specification up to a path-length bound.

    ``classes`` partitions the bounded path universe; each class holds paths
    with a common source and target. The representative of a class is its
    shortest member, ties broken lexicographically by edge ids.
    """

    graph: Graph
    bound: int
    classes: tuple[tuple[Path, ...], ...]

    @property
    def universe(self) -> tuple[Path, ...]:
        return tuple(sorted(p for cls in self.classes for p in cls))

    @cached_property
    def _index(self) -> dict[Path, Path]:
        return {p: cls[0] for cls in self.classes for p in cls}

    def representative(self, path: Path) -> Path:
        idx = self._index
        if path not in idx:
            raise BoundExceededError(
                f"path of length {len(path)} exceeds bound {self.bound}"
            )
        return idx[path]

    def same(self, p: Path, q: Path) -> bool:
        return self.representative(p) is self.representative(q)


def saturate(spec: Specification, bound: int = DEFAULT_BOUND) -> Congruence:
    """Least bounded congruence containing the declared facts.

    Closure rules: reflexivity, symmetry, transitivity, composition of equal
    pairs, and composition with an arbitrary path on the left or right, all
    restricted to paths of length <= bound. A declared fact that is not a
    well-formed pair of parallel paths, or has a side longer than the bound,
    is a hard error (silently dropping it would make every downstream
    comparison unsound). The closure is one worklist that whiskers merged
    roots, which is complete because the union-find keeps each class's
    shortest member (ties broken by edge ids) as its root.
    """
    _check_bound(bound)
    g = spec.graph
    uf = UnionFind(enumerate_paths(g, bound), key=_canon_key)

    for fact in spec.facts:
        errs = fact_errors(g, fact)
        if errs:
            raise OlogError(f"declared fact {format_fact(fact)}: {errs[0]}")
        check_fits(fact, bound, "declared")

    aspects_from = g.aspects_from
    aspects_into: dict[str, list] = {}
    for a in g.aspects:
        aspects_into.setdefault(a.tgt, []).append(a)

    # One worklist of pending pairs. Each merge pushes the one-aspect
    # whiskerings of the two old roots: every member's whiskering already
    # equals its root's, and a root too long to whisker has no member that
    # can be whiskered within the bound.
    pending = [(f.lhs, f.rhs) for f in spec.facts]
    while pending:
        p, q = map(uf.find, pending.pop())
        if not uf.union(p, q) or max(len(p.edges), len(q.edges)) >= bound:
            continue
        src, pe, qe = p.source, p.edges, q.edges
        for a in aspects_from.get(path_target(g, p), ()):
            pending.append((Path(src, pe + (a.id,)), Path(src, qe + (a.id,))))
        for a in aspects_into.get(src, ()):
            pending.append((Path(a.src, (a.id,) + pe), Path(a.src, (a.id,) + qe)))

    classes = tuple(
        tuple(sorted(members, key=_canon_key))
        for _, members in sorted(uf.classes().items(), key=lambda kv: _canon_key(kv[0]))
    )
    return Congruence(graph=g, bound=bound, classes=classes)


def entails(spec: Specification, fact: Fact, bound: int = DEFAULT_BOUND) -> str:
    """Decide a single fact within the bound.

    Returns :data:`ENTAILED` or :data:`NOT_DERIVABLE`. The query fact must be
    well formed and both sides must fit the bound.
    """
    errs = fact_errors(spec.graph, fact)
    if errs:
        raise OlogError(f"fact {format_fact(fact)}: {errs[0]}")
    check_fits(fact, bound, "queried")
    cong = saturate(spec, bound)
    return entails_in(cong, fact)


def entails_in(cong: Congruence, fact: Fact) -> str:
    """Decide a fact against an already computed congruence."""
    return ENTAILED if cong.same(fact.lhs, fact.rhs) else NOT_DERIVABLE


def consequence(spec: Specification, bound: int = DEFAULT_BOUND) -> tuple[Fact, ...]:
    """All bounded equations entailed by the specification.

    Contains every declared fact that fits the bound, every tautology, and
    everything derivable from them inside the bounded universe.
    """
    cong = saturate(spec, bound)
    return _pairs_within(spec.graph, ((p, i) for i, cls in enumerate(cong.classes) for p in cls))


def spec_leq(e1: Specification, e2: Specification, bound: int = DEFAULT_BOUND) -> bool:
    """Specialization order on the fiber over one graph.

    True when ``e1`` entails every declared fact of ``e2`` within the bound.
    Reflexive and transitive; the empty specification is the most general.
    """
    if e1.graph != e2.graph:
        raise GraphMismatchError("spec_leq compares specifications over one graph")
    cong = saturate(e1, bound)
    return all(cong.same(f.lhs, f.rhs) for f in e2.facts)
