"""Core model, an olog's schema: graphs of labeled types and aspects, paths,
facts, sketch declarations, specifications, and all their structural checks.

A specification presents a category by generators and relations: the graph
carries the vocabulary (types as nodes, aspects as edges, every aspect read
as a total function), each fact declares two parallel paths equal, and each
sketch declaration marks a type as a limit or colimit of others. Values are
immutable after construction; types and aspects are identified by their id
string, labels are display metadata and never participate in equality.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter, ge, gt, itemgetter, le, lt
from typing import NamedTuple, Sequence

from .errors import BoundExceededError, CompositionError, OlogError

#: Modifier names an aspect may carry.
INJECTIVE = "injective"
SURJECTIVE = "surjective"
MODIFIERS = frozenset({INJECTIVE, SURJECTIVE})

#: Maximum path length for entailment unless a caller gives another.
DEFAULT_BOUND = 6

#: Words of the text formats that cannot be ids.
KEYWORDS = frozenset({
    "olog", "type", "aspect", "fact", "product", "pullback", "coproduct",
    "pushout", "singleton", "empty", "image", "via", "legs", "span", "of",
    INJECTIVE, SURJECTIVE, "id", "node", "edge",
})

# The one id pattern of the text formats. It matches exactly the ASCII
# strings that ``str.isidentifier`` accepts, the test the checkers make.
_ID = r"[A-Za-z_][A-Za-z0-9_]*"


def record(cls=None, /, *, order: bool = False):
    """Make ``cls`` a frozen record of the fields it annotates, building each
    method from plain functions, not from generated source.

    The constructor takes the fields by position or keyword, in annotation
    order, a class attribute of a field's name being its default, and then
    runs ``__post_init__`` if the class has one. Equality, and with ``order``
    the four comparisons, hold only between instances of one class and
    compare every field in order; the hash is over every field. ``repr`` is
    ``Name(field=value, ...)``.
    Assigning or deleting an attribute raises :class:`AttributeError`; the
    fields live in the instance ``__dict__``.
    """
    if cls is None:
        return lambda c: record(c, order=order)
    names = tuple(cls.__annotations__)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    required = frozenset(names[: len(names) - len(defaults)])
    if not required.isdisjoint(defaults):
        raise TypeError(f"{cls.__name__}: fields with defaults must come last")
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        values = self.__dict__
        values.update(defaults)
        values.update(zip(names, args))
        if kwargs:
            values.update(kwargs)
            if args or len(values) > len(names) or not kwargs.keys() >= required:
                _check_call(cls, names, required, args, kwargs)
        elif not len(required) <= len(args) <= len(names):
            _check_call(cls, names, required, args, kwargs)
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({shown})"

    get = attrgetter(*names)
    # attrgetter of one name gives the value itself, not a 1-tuple.
    key = get if len(names) > 1 else lambda self: (get(self),)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    methods = {"__init__": __init__, "__repr__": __repr__, "__eq__": __eq__, "__hash__": __hash__}
    if order:
        for op in (lt, le, gt, ge):
            methods[f"__{op.__name__}__"] = _comparison(op, key)
    for name, fn in methods.items():
        fn.__name__, fn.__qualname__ = name, f"{cls.__qualname__}.{name}"
        setattr(cls, name, fn)
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    cls.__match_args__ = names
    return cls


def _check_call(cls, names, required, args, kwargs):
    """Raise ``TypeError`` unless the arguments bind one to each field, with
    every field in ``required`` among them."""
    given = {*names[: len(args)], *kwargs}
    twice = len(given) < len(args) + len(kwargs)
    if len(args) > len(names) or twice or not required <= given <= set(names):
        raise TypeError(
            f"{cls.__name__}() takes {', '.join(names)}, the first {len(required)} "
            f"required; got {len(args)} by position and {', '.join(kwargs) or 'none'} by keyword"
        )


def _comparison(op, key):
    def compare(self, other):
        if other.__class__ is self.__class__:
            return op(key(self), key(other))
        return NotImplemented

    return compare


def held(obj, name: str, bound, build):
    """``build()``, kept with ``bound`` in ``obj.__dict__[name]``: the same
    object while asked at that bound, replaced when asked at another. An
    exception from ``build`` leaves the slot as it was."""
    slot = obj.__dict__.get(name)
    if slot is not None and slot[0] == bound:
        return slot[1]
    value = build()
    obj.__dict__[name] = (bound, value)
    return value


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


@record
class TypeNode:
    id: str
    label: str = ""


@record
class Aspect:
    id: str
    src: str
    tgt: str
    label: str = ""
    modifiers: frozenset[str] = frozenset()


@record
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
        """Outgoing aspects per type id, in id order, each id resolved as by
        :attr:`aspect_by_id`."""
        out: dict[str, list[Aspect]] = {t.id: [] for t in self.types}
        for a in self.aspect_by_id.values():
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


def path_target(graph: Graph, path: Path) -> str:
    """The type where ``path`` ends over ``graph``, its source if it is an
    identity: the one walk of the path rules. The source must be a type and
    each aspect must exist and start where the path has reached; the first
    rule broken raises :class:`OlogError` naming it."""
    at = path.source
    if at not in graph.type_by_id:
        raise OlogError(f"path source '{at}' is not a type")
    aspects = graph.aspect_by_id
    for eid in path.edges:
        asp = aspects.get(eid)
        if asp is None:
            raise OlogError(f"unknown aspect '{eid}'")
        if asp.src != at:
            raise OlogError(f"aspect '{eid}' starts at '{asp.src}' but the path has reached '{at}'")
        at = asp.tgt
    return at


def compose_paths(graph: Graph, p: Path, q: Path) -> Path:
    """Concatenate two well-formed paths, p first then q.

    Raises :class:`CompositionError` naming both types when the target of
    ``p`` is not the source of ``q``, then :class:`OlogError` if ``q`` is
    not a path. Identity paths are two-sided units.
    """
    tgt = path_target(graph, p)
    if tgt != q.source:
        raise CompositionError(
            f"cannot compose: first path ends at '{tgt}', second starts at '{q.source}'"
        )
    path_target(graph, q)
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


def _walk(graph: Graph, path: Path, errs: list[str], prefix: str = "") -> str | None:
    """:func:`path_target`, or None once its error, after ``prefix``, is in ``errs``."""
    try:
        return path_target(graph, path)
    except OlogError as exc:
        errs.append(f"{prefix}{exc}")
        return None


def parallel_errors(fact: Fact, lhs_end: str, rhs_end: str) -> list[str]:
    """Why the sides of ``fact``, two paths that end at ``lhs_end`` and
    ``rhs_end``, are not parallel (empty if they are)."""
    lhs, rhs = fact
    if lhs.source != rhs.source:
        return [f"fact sides start at different types: '{lhs.source}' vs '{rhs.source}'"]
    if lhs_end != rhs_end:
        return [f"fact sides end at different types: '{lhs_end}' vs '{rhs_end}'"]
    return []


def fact_errors(graph: Graph, fact: Fact) -> list[str]:
    """Each side's path error, or else why the sides are not parallel."""
    errs: list[str] = []
    ends = [_walk(graph, side, errs) for side in fact]
    return errs or parallel_errors(fact, *ends)


@record(order=True)
class ProductDecl:
    """target = cartesian product of the factors; one projection aspect each.

    With no factors this is a ``singleton`` type: the empty product.
    """

    target: str
    factors: tuple[tuple[str, str], ...]  # (factor type, projection aspect)

    @property
    def kind(self) -> str:
        return "product" if self.factors else "singleton"


@record(order=True)
class PullbackDecl:
    """target = pairs from the two legs agreeing along the cospan paths."""

    kind = "pullback"
    target: str
    leg_b: tuple[str, str]  # (type, projection aspect)
    leg_c: tuple[str, str]
    cospan: tuple[Path, Path]  # paths B -> D and C -> D


@record(order=True)
class CoproductDecl:
    """target = tagged disjoint union of the summands; one inclusion each.

    With no summands this is an ``empty`` type: the empty coproduct.
    """

    target: str
    summands: tuple[tuple[str, str], ...]  # (summand type, inclusion aspect)

    @property
    def kind(self) -> str:
        return "coproduct" if self.summands else "empty"


@record(order=True)
class PushoutDecl:
    """target = disjoint union of the legs, identified along a common span."""

    kind = "pushout"
    target: str
    leg_b: tuple[str, str]  # (type, inclusion aspect into target)
    leg_c: tuple[str, str]
    span: tuple[Path, Path]  # paths A -> B and A -> C


@record(order=True)
class ImageDecl:
    """target is the image of a path, factored surjection-then-injection."""

    kind = "image"
    target: str
    of: Path
    surjection: str  # aspect source-of-path -> target
    injection: str  # aspect target -> target-of-path


SketchDecl = ProductDecl | PullbackDecl | CoproductDecl | PushoutDecl | ImageDecl


def legs(decl) -> tuple[tuple[str, str], ...]:
    """The (type, aspect) legs of a product, pullback, coproduct or pushout."""
    if isinstance(decl, ProductDecl):
        return decl.factors
    if isinstance(decl, CoproductDecl):
        return decl.summands
    return (decl.leg_b, decl.leg_c)


def synthesized_aspects(decl: SketchDecl) -> tuple[str, ...]:
    """Aspect ids whose functions are outputs of synthesizing ``decl``."""
    if isinstance(decl, ImageDecl):
        return (decl.surjection, decl.injection)
    return tuple(a for _, a in legs(decl))


@record
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
        # Facts that arrive strictly increasing are kept after one pass.
        facts = tuple(self.facts)
        if not all(map(lt, facts, facts[1:])):
            facts = tuple(sorted(dict.fromkeys(facts)))
        object.__setattr__(self, "facts", facts)
        sketch = sorted(dict.fromkeys(self.sketch), key=lambda d: (d.kind, d))
        object.__setattr__(self, "sketch", tuple(sketch))


def id_errors(kind: str, ident: str, taken) -> list[str]:
    """Why ``ident`` cannot be a ``kind`` id beside the ids in ``taken`` (empty if it can)."""
    errs: list[str] = []
    if ident in KEYWORDS:
        errs.append(f"'{ident}' is reserved and cannot be an id")
    elif not (ident.isascii() and ident.isidentifier()):
        errs.append(f"{kind} id {ident!r} is not an ASCII identifier")
    elif kind == "aspect" and ident == "Id":
        errs.append("'Id' names the key column and cannot be an aspect id")
    if ident in taken:
        errs.append(f"duplicate declaration of '{ident}'")
    return errs


def label_errors(kind: str, ident: str, label: str) -> list[str]:
    """Why the text format cannot write a type or aspect's label (empty if it can)."""
    if kind == "type" and not label:
        return [f"type '{ident}' has an empty label"]
    # A label is written between quotes on one line.
    if '"' in label or label.splitlines() not in ([], [label]):
        return [f"{kind} '{ident}' has a label with a quote or a line break"]
    return []


def endpoint_errors(graph: Graph, aspect: Aspect) -> list[str]:
    """An aspect's unknown source or target type and unknown modifiers."""
    errs: list[str] = []
    if aspect.src not in graph.type_by_id:
        errs.append(f"aspect '{aspect.id}': unknown source type '{aspect.src}'")
    if aspect.tgt not in graph.type_by_id:
        errs.append(f"aspect '{aspect.id}': unknown target type '{aspect.tgt}'")
    bad = aspect.modifiers - MODIFIERS
    if bad:
        errs.append(f"aspect '{aspect.id}' has unknown modifiers {sorted(bad)}")
    return errs


def validate_specification(spec: Specification) -> list[str]:
    """Diagnose a specification: ids, labels, endpoints and facts, as the text
    reader words them, a name it cannot read, then :func:`validate_decls`.

    Returns a list of human-readable problems; empty exactly when the graph,
    fact and sketch invariants all hold. Never raises: these are diagnostics.
    """
    g = spec.graph
    problems: list[str] = []
    if not (spec.name.isascii() and spec.name.isidentifier()):
        problems.append(f"name {spec.name!r} is not an ASCII identifier")

    taken: set[str] = set()
    for kind, items in (("type", g.types), ("aspect", g.aspects)):
        for x in items:
            problems += id_errors(kind, x.id, taken) + label_errors(kind, x.id, x.label)
            taken.add(x.id)
    problems += [msg for a in g.aspects for msg in endpoint_errors(g, a)]

    for fact in spec.facts:
        for msg in fact_errors(g, fact):
            problems.append(f"fact {format_fact(fact)}: {msg}")

    return problems + validate_decls(spec)


# ---------------------------------------------------------------------------
# Structural checks of sketch declarations


def decl_errors(graph: Graph, decl: SketchDecl) -> list[str]:
    """Endpoint problems of one sketch declaration over ``graph`` (empty if fine).

    The counterpart of :func:`fact_errors`: the parser reports
    these at the declaration, and :func:`validate_decls` collects them for
    specifications built in code.
    """
    problems: list[str] = []
    ctx = f"{type(decl).__name__} on '{decl.target}'"

    def need_type(tid: str):
        if not graph.has_type(tid):
            problems.append(f"{ctx}: unknown type '{tid}'")
            return False
        return True

    # An unknown target skips only the checks that compare against it.
    known = need_type(decl.target)

    def need_arrow(role: str, aid: str, src: str, tgt: str):
        a = graph.aspect_by_id.get(aid)
        if a is None:
            problems.append(f"{ctx}: unknown aspect '{aid}'")
        elif known and (a.src, a.tgt) != (src, tgt):
            problems.append(
                f"{ctx}: {role} must run {src} -> {tgt}, it runs {a.src} -> {a.tgt}"
            )

    if isinstance(decl, (ProductDecl, PullbackDecl)):
        for tid, aid in legs(decl):
            if need_type(tid):
                need_arrow(f"projection '{aid}'", aid, decl.target, tid)
    elif isinstance(decl, (CoproductDecl, PushoutDecl)):
        for tid, aid in legs(decl):
            if need_type(tid):
                need_arrow(f"inclusion '{aid}'", aid, tid, decl.target)

    if isinstance(decl, PullbackDecl):
        ends = []
        for p, (tid, _) in zip(decl.cospan, legs(decl)):
            ends.append(end := _walk(graph, p, problems, f"{ctx}: "))
            if end is not None and p.source != tid:
                problems.append(f"{ctx}: path {format_path(p)} must start at '{tid}'")
        if None not in ends and ends[0] != ends[1]:
            problems.append(f"{ctx}: cospan paths end at different types")
    elif isinstance(decl, PushoutDecl):
        ends = [_walk(graph, p, problems, f"{ctx}: ") for p in decl.span]
        if None not in ends and decl.span[0].source != decl.span[1].source:
            problems.append(f"{ctx}: span paths start at different types")
        elif None not in ends:
            for p, end, (tid, _) in zip(decl.span, ends, legs(decl)):
                if end != tid:
                    problems.append(f"{ctx}: path {format_path(p)} must end at '{tid}'")
    elif isinstance(decl, ImageDecl):
        end = _walk(graph, decl.of, problems, f"{ctx}: ")
        if end is not None:
            need_arrow("surjection part", decl.surjection, decl.of.source, decl.target)
            need_arrow("injection part", decl.injection, decl.target, end)

    # Synthesis writes one function per part, so no aspect may serve two.
    aids = synthesized_aspects(decl)
    for aid in dict.fromkeys(a for a in aids if aids.count(a) > 1):
        problems.append(f"{ctx}: aspect '{aid}' is used for more than one part")
    return problems


def validate_decls(spec: Specification) -> list[str]:
    """Endpoint sanity of every sketch declaration (empty when all fine)."""
    return [msg for decl in spec.sketch for msg in decl_errors(spec.graph, decl)]


def square_fact(spec: Specification, decl) -> Fact | None:
    """The commuting equation a pullback/pushout/image declaration presumes."""
    g = spec.graph
    if isinstance(decl, PullbackDecl):
        (tb, ab), (tc, ac) = decl.leg_b, decl.leg_c
        lhs = compose_paths(g, Path(decl.target, (ab,)), decl.cospan[0])
        rhs = compose_paths(g, Path(decl.target, (ac,)), decl.cospan[1])
        return Fact(lhs, rhs)
    if isinstance(decl, PushoutDecl):
        (tb, ab), (tc, ac) = decl.leg_b, decl.leg_c
        lhs = compose_paths(g, decl.span[0], Path(tb, (ab,)))
        rhs = compose_paths(g, decl.span[1], Path(tc, (ac,)))
        return Fact(lhs, rhs)
    if isinstance(decl, ImageDecl):
        rhs = Path(decl.of.source, (decl.surjection, decl.injection))
        return Fact(decl.of, rhs)
    return None


def missing_square_facts(spec: Specification) -> list[str]:
    """Lint: declarations whose commuting square is not declared as a fact.

    The square is part of the construction's meaning; its absence is flagged
    as a warning rather than an error.
    """
    declared = set(spec.facts)
    out: list[str] = []
    for decl in spec.sketch:
        try:
            sq = square_fact(spec, decl)
        except OlogError:
            continue  # structural problems are reported by decl_errors
        if sq is None:
            continue
        if sq not in declared and Fact(sq.rhs, sq.lhs) not in declared:
            out.append(
                f"{type(decl).__name__} on '{decl.target}': commuting fact "
                f"{format_fact(sq)} is not declared"
            )
    return out


#: Most paths a path universe may hold; a larger one is refused unbuilt.
PATH_BUDGET = 1_000_000
#: Most aspect ids the paths of a universe may hold in all, the sum of their
#: lengths; a universe within the path budget but over this one is refused too.
EDGE_BUDGET = 10_000_000


def _over_budget(bound: int, count: int, what: str, budget: str, limit: int):
    return BoundExceededError(
        f"bound {bound} gives at least {count} {what}, more than the {budget} "
        f"budget of {limit}; lower the bound"
    )


def count_paths(graph: Graph, bound: int) -> int:
    """The paths of length at most ``bound``, counted per end type and
    length; past :data:`PATH_BUDGET` the count stops, at a lower bound. The
    aspect ids of the paths are summed in the same loop: past
    :data:`EDGE_BUDGET`, within the path budget, it raises
    :class:`BoundExceededError`."""
    level = dict.fromkeys(graph.type_by_id, 1)
    total, edges = len(level), 0
    for length in range(1, bound + 1):
        if not level or total > PATH_BUDGET:
            break
        nxt: dict[str, int] = {}
        for a in graph.aspect_by_id.values():
            if a.src in level:
                nxt[a.tgt] = nxt.get(a.tgt, 0) + level[a.src]
        level = nxt
        count = sum(level.values())
        total, edges = total + count, edges + length * count
        if edges > EDGE_BUDGET and total <= PATH_BUDGET:
            raise _over_budget(bound, edges, "aspect ids in its paths", "edge", EDGE_BUDGET)
    return total


class PathUniverse(NamedTuple):
    """Paths numbered by :func:`path_universe`: ``paths[i]`` is path i, which
    ends at ``end[i]``; dropping its last aspect gives path ``parent[i]`` (-1
    for an identity), and ``right[i]`` are the ids of its one-aspect
    extensions in aspect id order (none at the bound). ``start[t]`` is the id
    of the identity at type t. A universe only lists paths: the class table
    of :func:`entail.class_table` is what locates one. It is shared by every
    caller that asks its graph at its bound and must not be mutated."""

    paths: list[Path]
    end: list[str]
    parent: list[int]
    right: list
    start: dict[str, int]


def path_universe(graph: Graph, bound: int) -> PathUniverse:
    """Number the well-formed paths of ``graph`` up to ``bound``: by length,
    then edge ids, then source. Level 1 is every aspect from a type, in id
    order, and each later level the previous one's right extensions, so no
    level needs sorting. Each ``Path`` is made as its id is numbered, its
    parent followed by one aspect. Over :data:`PATH_BUDGET` paths or
    :data:`EDGE_BUDGET` aspect ids in them, by :func:`count_paths`, it raises
    :class:`BoundExceededError` instead. It is :func:`held` on the graph.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    return held(graph, "_universe", bound, lambda: _number(graph, bound))


def check_budget(graph: Graph, bound: int) -> None:
    """Raise :class:`BoundExceededError` when the paths of ``graph`` up to
    ``bound`` pass :data:`PATH_BUDGET` or :data:`EDGE_BUDGET`, by
    :func:`count_paths`. Every structure built per bound is checked here
    first: a path universe, and a class table, which never has more states
    than the universe has paths."""
    count = count_paths(graph, bound)
    if count > PATH_BUDGET:
        raise _over_budget(bound, count, "paths", "path", PATH_BUDGET)


def _number(graph: Graph, bound: int) -> PathUniverse:
    check_budget(graph, bound)
    out, start = graph.aspects_from, {t: i for i, t in enumerate(graph.type_by_id)}
    steps = {t: ([(a.id,) for a in ext], [a.tgt for a in ext]) for t, ext in out.items()}
    firsts = [a for a in graph.aspect_by_id.values() if a.src in start] if bound else []
    first = {a.id: len(start) + k for k, a in enumerate(firsts)}
    new = tuple.__new__  # Path's own __new__ costs a call per path
    paths = [new(Path, (t, ())) for t in start] + [new(Path, (a.src, (a.id,))) for a in firsts]
    end = list(start) + [a.tgt for a in firsts]
    parent = [-1] * len(start) + [start[a.src] for a in firsts]
    right: list = [[first[a.id] for a in out[t]] for t in start] if bound else []
    for _ in range(1, bound):
        for i in range(len(right), len(end)):  # the ids of the last level
            exts, tgts = steps.get(end[i], ((), ()))
            right.append(range(len(end), len(end) + len(exts)) if exts else ())
            src, edges = paths[i]
            paths += [new(Path, (src, edges + e)) for e in exts]
            end += tgts
            parent += [i] * len(exts)
    right += [()] * (len(end) - len(right))
    return PathUniverse(paths, end, parent, right, start)


def enumerate_paths(graph: Graph, max_len: int) -> tuple[Path, ...]:
    """All well-formed paths of length at most ``max_len``, from
    :func:`path_universe` and under its budget.

    Deterministic order: by source id, then by length, then lexicographically
    by edge ids. Identity paths (length 0) are included for every type.
    """
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    return tuple(sorted(path_universe(graph, max_len).paths, key=itemgetter(0)))


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
    and role labels, made unique and legal by :func:`id_errors`.
    """
    if not legs:
        raise OlogError("a relation needs at least one leg")
    for _, tid in legs:
        if not graph.has_type(tid):
            raise OlogError(f"unknown leg type '{tid}'")

    taken = set(graph.type_by_id) | set(graph.aspect_by_id)

    def fresh(base: str) -> str:
        # Ids match ``_ID``: every other character becomes ``_``.
        ident = "".join(c if c.isascii() and c.isalnum() else "_" for c in base) or "x"
        if ident[0].isdigit():
            ident = "_" + ident
        cand, n = ident, 2
        while id_errors("aspect", cand, taken):
            cand = f"{ident}_{n}"
            n += 1
        taken.add(cand)
        return cand

    apex = TypeNode(fresh(name), name)
    new_aspects = [Aspect(fresh(role), apex.id, tid, role) for role, tid in legs]
    return Graph(graph.types + (apex,), graph.aspects + tuple(new_aspects)), apex
