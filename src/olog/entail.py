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

from functools import cached_property
from typing import NamedTuple

from .core import (
    DEFAULT_BOUND,
    Fact,
    Graph,
    Path,
    PathUniverse,
    Specification,
    fact_errors,
    format_fact,
    held,
    path_universe,
    record,
)
from .errors import BoundExceededError, GraphMismatchError, OlogError

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


def _pairs_within(u: PathUniverse, keys) -> tuple[Fact, ...]:
    """Every ordered pair of paths of ``u`` that share a key, sorted.

    ``keys`` holds one key per id, None for a path in no pair, and paths
    that share a key are parallel. The ids are walked in ``Path`` order, so
    each group fills already sorted and the pairs come out sorted: the cost
    follows the pairs emitted.
    """
    paths, groups, rows = u.paths, {}, []
    for i in u.order:
        key = keys[i]
        if key is not None:
            group = groups.setdefault(key, [])
            group.append(paths[i])
            rows.append((paths[i], group))
    new = tuple.__new__  # Fact's own __new__ costs a call per pair
    return tuple([new(Fact, (p, q)) for p, group in rows for q in group])


@record
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
        """The representative of ``path``'s class. A path outside the
        universe raises as :meth:`core.PathUniverse.index` does."""
        idx = self._index
        if path not in idx:
            path_universe(self.graph, self.bound).index(path)
        return idx[path]

    def same(self, p: Path, q: Path) -> bool:
        return self.representative(p) is self.representative(q)


class Closure(NamedTuple):
    """The least bounded congruence on the ids of a :class:`core.PathUniverse`:
    ``root[i]`` is the least id in the class of path i, its shortest member,
    ties broken lexicographically by edge ids. A closure is shared by every
    caller that asks its specification at its bound and must not be mutated."""

    universe: PathUniverse
    root: tuple[int, ...]

    def same(self, p: Path, q: Path) -> bool:
        """Are ``p`` and ``q`` in one class? Each must be a well-formed path
        within the bound, as :meth:`core.PathUniverse.index` requires."""
        return self.root[self.universe.index(p)] == self.root[self.universe.index(q)]


def closure(spec: Specification, bound: int = DEFAULT_BOUND) -> Closure:
    """Least bounded congruence containing the declared facts, on path ids.

    Closure rules: reflexivity, symmetry, transitivity, composition of equal
    pairs, and composition with an arbitrary path on the left or right, all
    restricted to paths of length <= bound. A declared fact that is not a
    well-formed pair of parallel paths, or has a side longer than the bound,
    is a hard error (silently dropping it would make every downstream
    comparison unsound).

    The closure runs on the ids of :func:`core.path_universe`: one worklist
    of id pairs over a list union-find whose roots are least ids, that is,
    each class's shortest member. Whiskering the merged roots is complete
    because every member's whiskering already equals its root's. No ``Path``
    of the universe is built. The closure is :func:`core.held` on ``spec``;
    the fact checks run when it is built.
    """
    _check_bound(bound)
    return held(spec, "_closure", bound, lambda: _close(spec, bound))


def _close(spec: Specification, bound: int) -> Closure:
    g = spec.graph
    for fact in spec.facts:
        errs = fact_errors(g, fact)
        if errs:
            raise OlogError(f"declared fact {format_fact(fact)}: {errs[0]}")
        check_fits(fact, bound, "declared")

    u = path_universe(g, bound)
    end, right, start, level = u.end, u.right, u.start, u.level
    n, n0 = len(end), len(start)  # the identities come first
    # left[i]: ids of the one-aspect extensions of path i on the left, in
    # aspect id order; empty at the bound. An identity's are the paths of
    # length 1 into its type. Since left_a(q;e) = right_e(left_a(q)), the
    # children of q take the columns of its left extensions' right lists.
    left: list = [[] for _ in range(n0)] + [()] * (n - n0)
    for i in range(n0, level[2]):
        if end[i] in start:
            left[start[end[i]]].append(i)
    for q in range(level[bound - 1]):
        if left[q]:
            for i, ls in zip(right[q], zip(*map(right.__getitem__, left[q]))):
                left[i] = ls

    # Parallel paths have extensions in the same order, so a merge of roots
    # x < y pushes the pairs of their extensions; when y is at the bound its
    # lists are empty and nothing is pushed.
    parent = list(range(n))
    pending = [(u.index(f.lhs), u.index(f.rhs)) for f in spec.facts]
    while pending:
        x, y = pending.pop()
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x == y:
            continue
        if y < x:
            x, y = y, x
        parent[y] = x
        pending.extend(zip(right[x], right[y]))
        pending.extend(zip(left[x], left[y]))

    # Every parent is at most its child, so one ascending pass resolves each
    # id to its root.
    for i in range(n):
        parent[i] = parent[parent[i]]
    return Closure(u, tuple(parent))


def saturate(spec: Specification, bound: int = DEFAULT_BOUND) -> Congruence:
    """The bounded congruence of :func:`closure` as classes of paths, each in
    id order, so its root opens it, and the classes in their roots' order."""
    u, root = closure(spec, bound)
    groups: dict[int, list[Path]] = {}
    for p, r in zip(u.paths, root):
        groups.setdefault(r, []).append(p)
    return Congruence(graph=spec.graph, bound=bound, classes=tuple(map(tuple, groups.values())))


def entails(spec: Specification, fact: Fact, bound: int = DEFAULT_BOUND) -> str:
    """Decide a single fact within the bound.

    Returns :data:`ENTAILED` or :data:`NOT_DERIVABLE`. The bound must be
    positive, the query fact well formed and both its sides within the bound.
    """
    query = Specification(graph=spec.graph, facts=(fact,))
    return ENTAILED if spec_leq(spec, query, bound) else NOT_DERIVABLE


def consequence(spec: Specification, bound: int = DEFAULT_BOUND) -> tuple[Fact, ...]:
    """All bounded equations entailed by the specification.

    Contains every declared fact that fits the bound, every tautology, and
    everything derivable from them inside the bounded universe.
    """
    u, root = closure(spec, bound)
    return _pairs_within(u, root)


def spec_leq(e1: Specification, e2: Specification, bound: int = DEFAULT_BOUND) -> bool:
    """Specialization order on the fiber over one graph.

    True when ``e1`` entails every declared fact of ``e2`` within the bound.
    Reflexive and transitive; the empty specification is the most general.
    The bound must be positive, and each fact of ``e2`` a well-formed query
    with both sides within the bound.
    """
    if e1.graph != e2.graph:
        raise GraphMismatchError("spec_leq compares specifications over one graph")
    _check_bound(bound)
    for f in e2.facts:
        errs = fact_errors(e2.graph, f)
        if errs:
            raise OlogError(f"fact {format_fact(f)}: {errs[0]}")
        check_fits(f, bound, "queried")
    cl = closure(e1, bound)
    return all(cl.same(f.lhs, f.rhs) for f in e2.facts)
