"""Bounded entailment of path equations.

The equations derivable from a set of declared facts form a congruence on
paths: an equivalence per (source, target) pair that is closed under
composition on either side. Over a graph with cycles the full congruence is
infinite and the word problem is undecidable, so this engine closes only
the finite universe of paths up to a configurable length bound. Verdicts are
therefore ``entailed`` or ``not derivable within bound``, never a claim of
non-entailment.

One engine computes the classes: :func:`class_table` enumerates them as
Todd-Coxeter enumerates cosets, with the bound as a depth limit. It is the
one structure that locates a path: the deciding callers read it without
numbering the paths, and the callers that output paths read the state of
each path of a :class:`core.PathUniverse`, which only lists them.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .core import (
    DEFAULT_BOUND,
    Fact,
    Graph,
    Path,
    PathUniverse,
    Specification,
    check_budget,
    fact_errors,
    format_fact,
    held,
    path_target,
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


#: Most ordered pairs one emission may make; more are refused unmade.
PAIR_BUDGET = 5_000_000


def _pairs_within(u: PathUniverse, keys, bound: int) -> tuple[Fact, ...]:
    """Every ordered pair of paths of ``u`` that share a key, sorted.

    ``keys`` holds one key per id, and paths that share a key are parallel.
    The ids are walked in ``Path`` order, a preorder walk of ``u.right`` from
    each identity, so each group fills already sorted and the pairs come out
    sorted: the cost follows the pairs emitted. The walk keeps one iterator
    per level it is in, and a path without extensions is read in its
    parent's loop. Past :data:`PAIR_BUDGET` pairs, the sum of the squared
    group sizes, it raises :class:`BoundExceededError` naming ``bound``
    before making any.
    """
    paths, right, groups, rows = u.paths, u.right, {}, []
    stack = [iter(u.start.values())]
    push, pop = stack.append, stack.pop
    while stack:
        for i in stack[-1]:
            group = groups.setdefault(keys[i], [])
            group.append(paths[i])
            rows.append((paths[i], group))
            if right[i]:
                push(iter(right[i]))
                break
        else:
            pop()
    count = sum(len(group) ** 2 for group in groups.values())
    if count > PAIR_BUDGET:
        raise BoundExceededError(
            f"bound {bound} gives {count} pairs to emit, more than the pair budget "
            f"of {PAIR_BUDGET}; lower the bound"
        )
    new = tuple.__new__  # Fact's own __new__ costs a call per pair
    return tuple([new(Fact, (p, q)) for p, group in rows for q in group])


@record
class Congruence:
    """Result of saturating a specification up to a path-length bound.

    ``classes`` partitions the bounded path universe; each class holds paths
    with a common source and target and opens with its root, its shortest
    member, ties broken lexicographically by edge ids. It only lists the
    classes: :func:`class_table` locates a path.
    """

    graph: Graph
    bound: int
    classes: tuple[tuple[Path, ...], ...]

    @property
    def universe(self) -> tuple[Path, ...]:
        return tuple(sorted(p for cls in self.classes for p in cls))


class ClassTable:
    """The classes of the paths of a specification up to a bound, one state
    per class of paths from one type.

    ``root[s]`` is the least member of class s (its shortest, ties broken by
    edge ids) as each aspect's position among those leaving the type reached,
    and ``parent[s]`` the state it was made from, whose root is one aspect
    shorter. ``trans[s][k]`` is the state of that root followed by the k-th
    aspect leaving its end type ``end[s]``, -1 until a run asks for it; it is
    None at the bound. A path's class is the run of its aspects from
    ``start[t]``, the identity state of its source t. A table is shared by
    every caller that asks its specification at its bound: a run may add
    states, but once built a table merges none.
    """

    def __init__(self, graph: Graph, bound: int, facts):
        self.graph, self.bound, self._out = graph, bound, graph.aspects_from
        self._position = {a.id: (t, k) for t, ext in self._out.items() for k, a in enumerate(ext)}
        types = list(graph.type_by_id)
        self.start = {t: s for s, t in enumerate(types)}
        self.end: list[str] = types
        self.root: list[tuple[int, ...]] = [()] * len(types)
        self.parent: list[int] = [-1] * len(types)
        self.trans: list = [[-1] * len(self._out[t]) for t in types]
        self._merge(facts)

    def _fresh(self, s: int, k: int) -> int:
        """A new state for root[s] followed by aspect k, entered as trans[s][k]."""
        t = self.trans[s][k] = len(self.root)
        root, end = self.root[s] + (k,), self._out[self.end[s]][k].tgt
        self.end.append(end)
        self.root.append(root)
        self.parent.append(s)
        self.trans.append([-1] * len(self._out.get(end, ())) if len(root) < self.bound else None)
        return t

    def _merge(self, facts) -> None:
        """Merge the states of each fact's sides and everything that follows.

        Popping distinct live states x and y, the one with the smaller
        (depth, root) survives and y joins it. Below the bound, the pairs of
        their one-aspect extensions are pushed: on the right as far as y's
        transitions were asked, and on the left for each aspect into their
        source. Every member's whiskering already equals its root's, so this
        is complete. Pairs pop shortest first, by the longer path that made
        them, which keeps the table small.
        """
        root, trans, parent, dead, heap = self.root, self.trans, self.parent, {}, []
        fresh = self._fresh
        into: dict[str, list] = {}
        for t, s in self.start.items():
            for k, a in enumerate(self._out[t]):
                into.setdefault(a.tgt, []).append((s, k))

        def find(x: int) -> int:
            while x in dead:
                y = dead[x]
                if y in dead:
                    dead[x] = y = dead[y]
                x = y
            return x

        def step(s: int, k: int) -> int:
            tr = trans[s]
            t = tr[k]
            if t < 0:
                return fresh(s, k)
            if t in dead:
                tr[k] = t = find(t)
            return t

        # left[x]: the states of a;root[x] for each aspect a into x's source,
        # in the order of ``into``. Since a;(r;k) = (a;r);k, they are the
        # states of x's parent's stepped by the last aspect of root[x].
        left: dict[int, list[int]] = {}

        def lefts(x: int) -> list[int]:
            got = left.get(x)
            if got is None:
                if parent[x] < 0:
                    got = [step(s, k) for s, k in into.get(self.end[x], ())]
                else:
                    k = root[x][-1]
                    got = [step(find(a) if a in dead else a, k) for a in lefts(find(parent[x]))]
                left[x] = got
            return got

        for f in facts:
            x, y = (self.walk(self.start[p.source], p.edges) for p in f)
            heappush(heap, (max(len(f.lhs), len(f.rhs)), x, y))
        while heap:
            _, x, y = heappop(heap)
            if x in dead:
                x = find(x)
            if y in dead:
                y = find(y)
            if x == y:
                continue
            if (len(root[y]), root[y]) < (len(root[x]), root[x]):
                x, y = y, x
            dead[y] = x
            if trans[y] is None:
                continue
            d = len(root[y]) + 1
            for k, t in enumerate(trans[y]):
                if t >= 0:
                    heappush(heap, (d, step(x, k), t))
            for a, b in zip(lefts(x), lefts(y)):
                heappush(heap, (d, a, b))
        # Every transition of a live state goes to a live state from now on,
        # so a run after the build needs no find.
        for s, tr in enumerate(trans):
            if s in dead:
                trans[s] = None
            elif tr:
                trans[s] = [find(t) if t in dead else t for t in tr]

    def walk(self, s: int, edges) -> int:
        """The state of state s's paths followed by ``edges``, which must fit
        the bound with them. An aspect that does not continue the path raises
        :class:`KeyError`."""
        position, end, trans = self._position, self.end, self.trans
        for e in edges:
            src, k = position[e]
            if src != end[s]:
                raise KeyError(e)
            t = trans[s][k]
            s = t if t >= 0 else self._fresh(s, k)
        return s

    def state(self, path: Path) -> int:
        """The state of ``path``. This is the one refusal of a path that no
        bounded structure holds: past the bound :class:`BoundExceededError`,
        else the :class:`OlogError` of :func:`core.path_target`."""
        if len(path) > self.bound:
            raise BoundExceededError(f"path of length {len(path)} exceeds bound {self.bound}")
        try:
            return self.walk(self.start[path.source], path.edges)
        except KeyError:
            path_target(self.graph, path)
            raise

    def same(self, p: Path, q: Path) -> bool:
        return self.state(p) == self.state(q)

    def path(self, s: int) -> Path:
        """The root of state s as a ``Path``, read back through its parents."""
        edges = []
        while self.parent[s] >= 0:
            s, k = self.parent[s], self.root[s][-1]
            edges.append(self._out[self.end[s]][k].id)
        return Path(self.end[s], tuple(reversed(edges)))


def class_table(spec: Specification, bound: int = DEFAULT_BOUND) -> ClassTable:
    """The classes of the least bounded congruence containing the declared facts.

    Closure rules: reflexivity, symmetry, transitivity, composition of equal
    pairs, and composition with an arbitrary path on the left or right, all
    restricted to paths of length <= bound. A declared fact that is not a
    well-formed pair of parallel paths, or has a side longer than the bound,
    is a hard error (silently dropping it would make every downstream
    comparison unsound), and so is a bound past :func:`core.check_budget`.

    The classes are enumerated as Todd-Coxeter enumerates cosets, with the
    bound as a depth limit (Carmody and Walters, "Computing quotients of
    actions of a free category", 1991). The table is :func:`core.held` on
    ``spec``; the checks run when it is built.
    """
    _check_bound(bound)
    return held(spec, "_classes", bound, lambda: _tabulate(spec, bound))


def _tabulate(spec: Specification, bound: int) -> ClassTable:
    for fact in spec.facts:
        errs = fact_errors(spec.graph, fact)
        if errs:
            raise OlogError(f"declared fact {format_fact(fact)}: {errs[0]}")
        check_fits(fact, bound, "declared")
    check_budget(spec.graph, bound)
    return ClassTable(spec.graph, bound, spec.facts)


def _states(spec: Specification, bound: int) -> tuple[PathUniverse, list[int]]:
    """The path universe of ``spec``'s graph up to ``bound`` and the state of
    :func:`class_table` of each of its ids. An id's state is its parent's
    stepped by its last aspect, so one ascending pass fills them all. States
    are per source, so paths that share one are parallel."""
    table = class_table(spec, bound)
    u = path_universe(table.graph, bound)
    right, trans, n0 = u.right, table.trans, len(u.start)
    state = [0] * len(u.end)
    for t, i in u.start.items():
        state[i] = table.start[t]
    for q, kids in enumerate(right):
        if kids:  # a path with extensions, so shorter than the bound
            s = state[q]
            tr = trans[s]
            if -1 in tr:
                for k in [k for k, t in enumerate(tr) if t < 0]:
                    table._fresh(s, k)
            if q < n0:  # an identity's extensions are not consecutive ids
                for i, t in zip(kids, tr):
                    state[i] = t
            else:
                state[kids.start:kids.stop] = tr
    return u, state


def saturate(spec: Specification, bound: int = DEFAULT_BOUND) -> Congruence:
    """The bounded congruence of :func:`class_table` as classes of paths, each
    in id order, so its least id, its root, opens it, and the classes in
    their roots' order. It only lists paths; to locate one, read the table:
    ``state(p) == state(q)`` decides and ``path(state(p))`` is the root."""
    u, state = _states(spec, bound)
    groups: dict[int, list[Path]] = {}
    for p, s in zip(u.paths, state):
        groups.setdefault(s, []).append(p)
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
    return _pairs_within(*_states(spec, bound), bound)


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
    table = class_table(e1, bound)
    return all(table.same(f.lhs, f.rhs) for f in e2.facts)
