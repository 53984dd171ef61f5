"""Independent reference implementations used to cross-check the engine.

These deliberately avoid the library's union-find saturation: the equation
oracle applies the inference rules directly to a set of ordered pairs until
nothing new appears, and the colimit oracle quotients tagged vocabularies
with its own tiny union-find. The ``*_by_pairs`` oracles are the candidate
loops the library answered with before it emitted equations class by class:
they test every parallel pair from :func:`enumerate_equations`, which
lives here because nothing in the library needs it. The pullback
oracles are the loops over every (b, c) pair of leg keys that the library
used before it joined the legs on the cospan value, and the ``*_by_factors``
oracles are the product check and synthesis from before products and
pullbacks became one limit. ``saturate_by_rounds``
is the round-by-round closure ``entail.saturate`` ran before it became one
worklist; it regroups and re-whiskers every merged class each round.
``saturate_by_paths`` is that worklist as it ran on ``Path`` values before
the universe was numbered, and ``validate_system_by_edges`` is
``system.validate_system`` from before it saturated each target once: it
runs ``is_spec_morphism`` per edge. Slow and obvious beats fast and clever
here.
``enumerate_paths_by_levels`` is ``core.enumerate_paths`` as it was before
it read the numbered universe of ``core.path_universe``: it grows each
source's paths a level at a time. The oracles enumerate paths with it and
order them with their own ``_canon_key``, not with the universe.
``DataclassPath`` and ``DataclassFact`` are ``core.Path`` and ``core.Fact``
as they were before they became named tuples, kept to pin the value contract;
``DataclassSourceSpan`` and ``DataclassParseDiagnostic`` do the same for
``dsl.SourceSpan`` and ``dsl.ParseDiagnostic``. The other ``Dataclass*``
classes are the 21 value classes of ``core``, ``entail``, ``flow``,
``instances``, ``sketch`` and ``system`` as they were before they became
``core.record`` classes: their fields, options and ``__post_init__``, and
no other method.
The ``*_by_rows`` and ``*_by_keys`` oracles are the row layer as it was
before it worked a column at a time: ``load_tables`` reading one row at a
time, facts, sketch checks and pullback instances evaluated one key at a
time, and INSERT statements quoted one value at a time. Each check decides
its verdict inside the loop that finds its witness.
``pairs_within_by_sorting`` is ``entail._pairs_within`` as it was before it
walked the universe's ids in ``Path`` order: it sorts each group and then
the paths. ``tokenize_by_groups`` and ``TOKEN_RE_BY_GROUPS`` are the
``dsl`` tokenizer as it was before it matched once per token: blanks are a
token of their own, each token's kind is its group's name, and each token
carries its ``SourceSpan``.
``validate_specification_by_kinds`` is ``core.validate_specification`` as it
was before ``core.id_errors``, ``label_errors`` and ``endpoint_errors`` owned
its rules: one seen-set per kind, a type/aspect clash of its own, and its own
wording.
``path_errors`` and the ``*_by_walks`` checkers are ``fact_errors``,
``decl_errors`` and ``flow.morphism_errors`` as they were before
``core.path_target`` owned the path rules: each path was checked by
``path_errors`` and walked again for its end, up to six times per
declaration, and an unknown aspect in a path was worded ``path mentions
unknown aspect 'x'``.
``close_by_union_loop`` is the closure of a path universe's ids as it was
before ``entail`` read the classes of ``entail.class_table``: one worklist of
id pairs over a list union-find on the whole path universe, whose left
extensions it derives from the right ones. It returns the universe and each
id's root, the least id in its class.
"""

from __future__ import annotations

import csv
import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import product as iter_product
from pathlib import Path as FsPath
from types import MappingProxyType
from typing import NamedTuple

from olog.core import (
    _ID,
    KEYWORDS,
    MODIFIERS,
    CoproductDecl,
    Fact,
    Graph,
    ImageDecl,
    Path,
    PathUniverse,
    ProductDecl,
    PullbackDecl,
    PushoutDecl,
    SketchDecl,
    Specification,
    UnionFind,
    fact_errors,
    format_fact,
    format_path,
    legs,
    path_target,
    path_universe,
    synthesized_aspects,
    validate_decls,
)
from olog.dsl import SourceSpan, _Parser
from olog.entail import Congruence, _check_bound, check_fits, saturate
from olog.errors import BoundExceededError, OlogError, SynthesisError
from olog.flow import GraphMorphism, is_spec_morphism, translate_fact
from olog.instances import Counterexample, FactCheck, KeyDiagram, eval_path, satisfies_fact
from olog.sketch import (
    CheckResult,
    check_surjective,
    encode_tagged,
    encode_tuple,
)
from olog.system import fusion, optimal_channel


@dataclass(frozen=True, order=True)
class DataclassPath:
    """A composable sequence of aspect ids starting at ``source``.

    The empty sequence is the identity path at ``source``.
    """

    source: str
    edges: tuple[str, ...] = ()

    @property
    def is_identity(self) -> bool:
        return not self.edges

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True, order=True)
class DataclassFact:
    """A declared equation between two parallel paths."""

    lhs: DataclassPath
    rhs: DataclassPath


@dataclass(frozen=True)
class DataclassSourceSpan:
    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


@dataclass(frozen=True)
class DataclassParseDiagnostic:
    severity: str
    message: str
    at: DataclassSourceSpan

    def __str__(self) -> str:
        return f"{self.at} - {self.severity}: {self.message}"


# --- the value classes as dataclasses ------------------------------------------


@dataclass(frozen=True)
class DataclassTypeNode:
    id: str
    label: str = ""


@dataclass(frozen=True)
class DataclassAspect:
    id: str
    src: str
    tgt: str
    label: str = ""
    modifiers: frozenset[str] = frozenset()


@dataclass(frozen=True)
class DataclassGraph:
    types: tuple = ()
    aspects: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "types", tuple(sorted(self.types, key=lambda t: t.id)))
        object.__setattr__(self, "aspects", tuple(sorted(self.aspects, key=lambda a: a.id)))


@dataclass(frozen=True, order=True)
class DataclassProductDecl:
    target: str
    factors: tuple


@dataclass(frozen=True, order=True)
class DataclassPullbackDecl:
    target: str
    leg_b: tuple
    leg_c: tuple
    cospan: tuple


@dataclass(frozen=True, order=True)
class DataclassCoproductDecl:
    target: str
    summands: tuple


@dataclass(frozen=True, order=True)
class DataclassPushoutDecl:
    target: str
    leg_b: tuple
    leg_c: tuple
    span: tuple


@dataclass(frozen=True, order=True)
class DataclassImageDecl:
    target: str
    of: Path
    surjection: str
    injection: str


@dataclass(frozen=True)
class DataclassSpecification:
    graph: Graph
    facts: tuple = ()
    sketch: tuple = ()
    name: str = "olog"

    def __post_init__(self):
        object.__setattr__(self, "facts", tuple(sorted(dict.fromkeys(self.facts))))
        sketch = sorted(dict.fromkeys(self.sketch), key=lambda d: (d.kind, d))
        object.__setattr__(self, "sketch", tuple(sketch))


@dataclass(frozen=True)
class DataclassCongruence:
    graph: Graph
    bound: int
    classes: tuple


@dataclass(frozen=True)
class DataclassGraphMorphism:
    src: Graph
    tgt: Graph
    type_map: dict
    aspect_map: dict


@dataclass(frozen=True, eq=True)
class DataclassKeyDiagram:
    sets: dict
    funcs: dict


@dataclass(frozen=True)
class DataclassCounterexample:
    fact: Fact
    key: str
    lhs_result: str
    rhs_result: str


@dataclass(frozen=True)
class DataclassFactCheck:
    fact: Fact
    counterexamples: tuple


@dataclass(frozen=True)
class DataclassSatisfactionReport:
    checks: tuple


@dataclass(frozen=True)
class DataclassCheckResult:
    kind: str
    subject: str
    passed: bool
    witness: str = ""


@dataclass(frozen=True)
class DataclassShape:
    nodes: tuple
    edges: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes)))
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))


@dataclass(frozen=True)
class DataclassDistributedSystem:
    shape: object
    graphs: dict
    links: dict


@dataclass(frozen=True)
class DataclassInformationSystem:
    shape: object
    specs: dict
    constraints: dict

    def __post_init__(self):
        object.__setattr__(self, "specs", MappingProxyType(dict(self.specs)))
        object.__setattr__(self, "constraints", MappingProxyType(dict(self.constraints)))


@dataclass(frozen=True)
class DataclassChannel:
    core: Graph
    links: dict


@dataclass(frozen=True)
class DataclassSystemMorphism:
    components: dict


def enumerate_paths_by_levels(graph: Graph, max_len: int) -> tuple[Path, ...]:
    """``core.enumerate_paths`` as it was before it read the numbered
    universe: each source's paths grown a level at a time, by source id,
    then length, then edge ids."""
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    out: list[Path] = []
    for src in (t.id for t in graph.types):
        level: list[tuple[Path, str]] = [(Path(src, ()), src)]
        out.append(level[0][0])
        for _ in range(max_len):
            nxt: list[tuple[Path, str]] = []
            for path, at in level:
                for a in graph.aspects_from.get(at, ()):
                    nxt.append((Path(src, path.edges + (a.id,)), a.tgt))
            level = nxt
            out.extend(p for p, _ in level)
    return tuple(dict.fromkeys(out))


def _canon_key(path: Path):
    """Shortest first, ties broken by edge ids, then by source."""
    return (len(path.edges), path.edges, path.source)


def enumerate_equations(graph: Graph, bound: int) -> tuple[Fact, ...]:
    """Every ordered pair of parallel paths with both sides of length <= bound.

    Includes the reflexive pairs. Deterministic order (sorted by path pairs).
    """
    _check_bound(bound)
    by_endpoints: dict[tuple[str, str], list[Path]] = {}
    for p in enumerate_paths_by_levels(graph, bound):
        by_endpoints.setdefault((p.source, path_target(graph, p)), []).append(p)
    out: list[Fact] = []
    for _, group in sorted(by_endpoints.items()):
        for lhs in group:
            for rhs in group:
                out.append(Fact(lhs, rhs))
    return tuple(sorted(out))


def naive_consequence(graph: Graph, facts, bound: int) -> set[Fact]:
    """Fixpoint of reflexivity, symmetry, transitivity, and composition of
    equal pairs over the bounded path universe."""
    paths = enumerate_paths_by_levels(graph, bound)
    universe = set(paths)
    tgt = {p: path_target(graph, p) for p in paths}

    pairs: set[tuple[Path, Path]] = {(p, p) for p in paths}
    for f in facts:
        assert f.lhs in universe and f.rhs in universe, "fact outside the universe"
        pairs.add((f.lhs, f.rhs))

    changed = True
    while changed:
        changed = False
        new: set[tuple[Path, Path]] = set()

        for a, b in pairs:
            if (b, a) not in pairs:
                new.add((b, a))

        by_lhs: dict[Path, set[Path]] = {}
        for a, b in pairs:
            by_lhs.setdefault(a, set()).add(b)
        for a, b in pairs:
            for c in by_lhs.get(b, ()):
                if (a, c) not in pairs:
                    new.add((a, c))

        by_src: dict[str, list[tuple[Path, Path]]] = {}
        for g1, g2 in pairs:
            by_src.setdefault(g1.source, []).append((g1, g2))
        for f1, f2 in pairs:
            for g1, g2 in by_src.get(tgt[f1], ()):
                if len(f1.edges) + len(g1.edges) > bound:
                    continue
                if len(f2.edges) + len(g2.edges) > bound:
                    continue
                c1 = Path(f1.source, f1.edges + g1.edges)
                c2 = Path(f2.source, f2.edges + g2.edges)
                if (c1, c2) not in pairs:
                    new.add((c1, c2))

        if new:
            pairs |= new
            changed = True

    return {Fact(a, b) for a, b in pairs}


class CanonUnionFind(UnionFind):
    """``core.UnionFind`` whose root is each class's least member under
    ``_canon_key``: shortest first, ties broken by edge ids."""

    __slots__ = ()

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if _canon_key(rb) < _canon_key(ra):
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def saturate_by_paths(spec: Specification, bound: int) -> Congruence:
    """``entail.saturate`` as one worklist of ``Path`` pairs over a hashed
    union-find, whiskering the two old roots of every merge."""
    _check_bound(bound)
    g = spec.graph
    uf = CanonUnionFind(enumerate_paths_by_levels(g, bound))

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


def saturate_by_rounds(spec: Specification, bound: int) -> Congruence:
    """``entail.saturate`` as a fixpoint of rounds: each round regroups the
    universe into classes and whiskers every member of every merged class
    against its representative, until a round merges nothing."""
    _check_bound(bound)
    g = spec.graph
    universe = enumerate_paths_by_levels(g, bound)
    in_universe = set(universe)
    uf = CanonUnionFind(universe)

    for fact in spec.facts:
        errs = fact_errors(g, fact)
        if errs:
            raise OlogError(f"declared fact {format_fact(fact)}: {errs[0]}")
        if fact.lhs not in in_universe or fact.rhs not in in_universe:
            raise BoundExceededError(
                f"declared fact '{format_fact(fact)}' has a side longer than bound {bound}"
            )
        uf.union(fact.lhs, fact.rhs)

    targets = {p: path_target(g, p) for p in universe}
    aspects_from = g.aspects_from
    aspects_into: dict[str, list] = {}
    for a in g.aspects:
        aspects_into.setdefault(a.tgt, []).append(a)

    # Close under single-aspect extension of each merged pair against the
    # class representative; longer compositions follow by induction because
    # every prefix of a bounded path is bounded.
    changed = True
    while changed:
        changed = False
        for rep, members in uf.classes().items():
            if len(members) < 2:
                continue
            rep_tgt = targets[rep]
            for m in members:
                if m is rep or len(m.edges) + 1 > bound:
                    continue
                for a in aspects_from.get(rep_tgt, ()):
                    ext_m = Path(m.source, m.edges + (a.id,))
                    ext_r = Path(rep.source, rep.edges + (a.id,))
                    if uf.union(ext_m, ext_r):
                        changed = True
                for a in aspects_into.get(m.source, ()):
                    pre_m = Path(a.src, (a.id,) + m.edges)
                    pre_r = Path(a.src, (a.id,) + rep.edges)
                    if uf.union(pre_m, pre_r):
                        changed = True

    classes = tuple(
        tuple(sorted(members, key=_canon_key))
        for _, members in sorted(uf.classes().items(), key=lambda kv: _canon_key(kv[0]))
    )
    return Congruence(graph=g, bound=bound, classes=classes)


def validate_system_by_edges(sys, bound: int) -> list[str]:
    """``system.validate_system`` with one ``is_spec_morphism`` per edge, so
    a target with several incoming edges is saturated once per edge, and
    with no memo."""
    problems: list[str] = []
    overflowing: set[str] = set()
    for n in sys.shape.nodes:
        if n not in sys.specs:
            problems.append(f"node '{n}' has no specification")
            continue
        try:
            for fact in sys.specs[n].facts:
                check_fits(fact, bound, "declared")
        except BoundExceededError as exc:
            problems.append(f"node '{n}': {exc}")
            overflowing.add(n)
    for eid, src, tgt in sys.shape.edges:
        h = sys.constraints.get(eid)
        if h is None:
            problems.append(f"edge '{eid}' has no morphism")
            continue
        if src not in sys.specs or tgt not in sys.specs:
            problems.append(f"edge '{eid}' references unknown nodes")
            continue
        if h.src != sys.specs[src].graph or h.tgt != sys.specs[tgt].graph:
            problems.append(f"edge '{eid}': morphism endpoints do not match the node graphs")
            continue
        if tgt in overflowing:
            continue
        try:
            _, offenders = is_spec_morphism(h, sys.specs[src], sys.specs[tgt], bound)
        except OlogError as exc:
            problems.append(f"edge '{eid}': {exc}")
            continue
        for f in offenders:
            problems.append(f"edge '{eid}': fact {format_fact(f)} is not preserved")
    return problems


def representatives(cong: Congruence) -> dict[Path, Path]:
    """Each path of ``cong``'s universe mapped to its class's first member."""
    return {p: cls[0] for cls in cong.classes for p in cls}


def consequence_by_pairs(spec: Specification, bound: int) -> tuple[Fact, ...]:
    """``entail.consequence`` as every candidate pair tested against the classes."""
    rep = representatives(saturate(spec, bound))
    out = [f for f in enumerate_equations(spec.graph, bound) if rep[f.lhs] == rep[f.rhs]]
    return tuple(out)


def intent_by_pairs(d, graph: Graph, bound: int) -> tuple[Fact, ...]:
    """``instances.intent`` as every candidate pair checked key by key."""
    out = []
    for fact in enumerate_equations(graph, bound):
        if satisfies_fact(d, fact).satisfied:
            out.append(fact)
    return tuple(out)


def inv_flow_by_pairs(h, target_facts, bound: int, target_bound: int | None = None):
    """``flow.inv_flow`` as every candidate pair translated and decided."""
    tb = bound if target_bound is None else target_bound
    target_spec = Specification(graph=h.tgt, facts=tuple(target_facts))
    rep = representatives(saturate(target_spec, tb))
    out = []
    for fact in enumerate_equations(h.src, bound):
        img = translate_fact(h, fact)
        if len(img.lhs) > tb or len(img.rhs) > tb:
            continue
        if rep[img.lhs] == rep[img.rhs]:
            out.append(fact)
    return tuple(out)


def far_bound(h, bound: int) -> int:
    """The bound of ``flow.inv_flow``'s far side: ``bound`` times the longest
    aspect image of ``h``, at least 1, so every source path's translation fits."""
    return bound * max([1] + [len(p.edges) for p in h.aspect_map.values()])


def system_consequence_by_pairs(sys, bound: int) -> dict[str, Specification]:
    """``system.system_consequence`` as every candidate pair per node."""
    fused = fusion(sys, bound)
    channel = optimal_channel(sys.distributed())
    rep = representatives(saturate(fused, bound))
    out: dict[str, Specification] = {}
    for n in sys.shape.nodes:
        g = sys.specs[n].graph
        facts = []
        for fact in enumerate_equations(g, bound):
            img = translate_fact(channel.links[n], fact)
            if rep[img.lhs] == rep[img.rhs]:
                facts.append(fact)
        out[n] = Specification(graph=g, facts=tuple(facts), name=n)
    return out


def check_pullback_by_pairs(d, decl) -> CheckResult:
    """``sketch.check_pullback`` as every pair of leg keys tested."""
    (tb, ab), (tc, ac) = decl.leg_b, decl.leg_c
    pf, pg = decl.cospan
    want = {
        (b, c)
        for b in sorted(d.sets.get(tb, frozenset()))
        for c in sorted(d.sets.get(tc, frozenset()))
        if eval_path(d, pf, b) == eval_path(d, pg, c)
    }
    got = tupling_by_keys(d, decl.target, [ab, ac])
    return bijection_onto_by_keys("pullback", decl.target, got, want)


def synthesize_pullback_by_pairs(decl, d) -> KeyDiagram:
    """``sketch.synthesize`` on a pullback as every pair of leg keys tested."""
    if d.sets.get(decl.target):
        raise SynthesisError(
            f"target '{decl.target}' is already populated; refusing to overwrite"
        )
    sets = {k: v for k, v in d.sets.items()}
    funcs = {k: dict(v) for k, v in d.funcs.items()}
    (tb, ab), (tc, ac) = decl.leg_b, decl.leg_c
    pf, pg = decl.cospan
    keys = []
    for b in sorted(d.sets.get(tb, frozenset())):
        for c in sorted(d.sets.get(tc, frozenset())):
            if eval_path(d, pf, b) == eval_path(d, pg, c):
                key = encode_tuple((b, c))
                keys.append(key)
                funcs.setdefault(ab, {})[key] = b
                funcs.setdefault(ac, {})[key] = c
    sets[decl.target] = frozenset(keys)
    funcs.setdefault(ab, {})
    funcs.setdefault(ac, {})
    return KeyDiagram(sets=sets, funcs=funcs)


def check_product_by_factors(d: KeyDiagram, decl) -> CheckResult:
    """Tupling along the projections must biject onto the full cartesian product.

    With zero factors the product is a single empty tuple, so the target must
    have exactly one key.
    """
    want = set(
        iter_product(*(sorted(d.sets.get(t, frozenset())) for t, _ in decl.factors))
    )
    got = tupling_by_keys(d, decl.target, [aid for _, aid in decl.factors])
    return bijection_onto_by_keys(decl.kind, decl.target, got, want)


def synthesize_product_by_factors(decl, d) -> KeyDiagram:
    """``sketch.synthesize`` on a product, one tuple of factor keys at a time."""
    if d.sets.get(decl.target):
        raise SynthesisError(
            f"target '{decl.target}' is already populated; refusing to overwrite"
        )
    sets = dict(d.sets)
    funcs = {k: dict(v) for k, v in d.funcs.items()}
    for _, aid in decl.factors:
        funcs.setdefault(aid, {})
    keys = []
    for combo in iter_product(
        *(sorted(d.sets.get(t, frozenset())) for t, _ in decl.factors)
    ):
        key = encode_tuple(combo)
        keys.append(key)
        for (_, aid), comp in zip(decl.factors, combo):
            funcs[aid][key] = comp
    sets[decl.target] = frozenset(keys)
    return KeyDiagram(sets=sets, funcs=funcs)


class TagPartition:
    """Minimal union-find over (node, id) tags."""

    def __init__(self):
        self.parent: dict[tuple[str, str], tuple[str, str]] = {}

    def add(self, tag):
        self.parent.setdefault(tag, tag)

    def find(self, tag):
        while self.parent[tag] != tag:
            self.parent[tag] = self.parent[self.parent[tag]]
            tag = self.parent[tag]
        return tag

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def classes(self) -> set[frozenset]:
        groups: dict[tuple[str, str], set] = {}
        for tag in self.parent:
            groups.setdefault(self.find(tag), set()).add(tag)
        return {frozenset(g) for g in groups.values()}


def colimit_classes(ds) -> tuple[set[frozenset], set[frozenset]]:
    """Type and aspect classes of the graph colimit, computed from scratch."""
    types, aspects = TagPartition(), TagPartition()
    for n in ds.shape.nodes:
        g = ds.graphs[n]
        for t in g.types:
            types.add((n, t.id))
        for a in g.aspects:
            aspects.add((n, a.id))
    for eid, src, tgt_node in ds.shape.edges:
        h = ds.links[eid]
        for tid, img in h.type_map.items():
            types.union((src, tid), (tgt_node, img))
        for aid, img in h.aspect_map.items():
            assert len(img.edges) == 1
            aspects.union((src, aid), (tgt_node, img.edges[0]))
    return types.classes(), aspects.classes()


def foreign_keys(sql_text: str) -> dict[str, list[tuple[str, str]]]:
    """The (column, referenced table) of each FOREIGN KEY clause, per table
    of the DDL in ``sql_text``; every id is a delimited identifier."""
    import re

    fks: dict[str, list[tuple[str, str]]] = {}
    table = None
    for line in sql_text.splitlines():
        m = re.match(r'CREATE TABLE "(\w+)" \(', line)
        if m:
            table = m.group(1)
            fks.setdefault(table, [])
        m = re.match(r'\s*FOREIGN KEY \("(\w+)"\) REFERENCES "(\w+)" \("Id"\)', line)
        if m and table:
            fks[table].append((m.group(1), m.group(2)))
    return fks


def simulate_foreign_keys(sql_text: str) -> list[str]:
    """Check INSERT rows against the FOREIGN KEY clauses of the DDL in the
    same text. Returns violation messages (empty when consistent)."""
    import re

    fks = foreign_keys(sql_text)
    columns: dict[str, list[str]] = {}
    rows: dict[str, list[dict[str, str]]] = {}
    for line in sql_text.splitlines():
        m = re.match(r'INSERT INTO "(\w+)" \(([^)]*)\) VALUES \((.*)\);', line)
        if not m:
            continue
        tname, vals = m.group(1), m.group(3)
        cols = re.findall(r'"(\w+)"', m.group(2))
        parsed = [v[1:-1].replace("''", "'") for v in re.findall(r"'(?:[^']|'')*'", vals)]
        columns[tname] = cols
        rows.setdefault(tname, []).append(dict(zip(cols, parsed)))

    ids = {t: {r["Id"] for r in rs} for t, rs in rows.items()}
    problems = []
    for tname, rs in rows.items():
        for col, ref in fks.get(tname, ()):
            for r in rs:
                if r[col] not in ids.get(ref, set()):
                    problems.append(
                        f"{tname}.{col} value '{r[col]}' missing from {ref}.Id"
                    )
    return problems


# --- the row layer one row or key at a time ----------------------------------


def load_tables_by_rows(
    directory: str | FsPath,
    spec: Specification,
    optional_types: frozenset[str] = frozenset(),
    optional_aspects: frozenset[str] = frozenset(),
) -> tuple[KeyDiagram, list[str]]:
    """``instances.load_tables`` reading every table one row at a time."""
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
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8
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


def satisfies_fact_by_keys(d: KeyDiagram, fact: Fact) -> FactCheck:
    """``instances.satisfies_fact`` evaluating both sides one key at a time."""
    bad: list[Counterexample] = []
    for key in sorted(d.sets.get(fact.lhs.source, frozenset())):
        lv = eval_path(d, fact.lhs, key)
        rv = eval_path(d, fact.rhs, key)
        if lv != rv:
            bad.append(Counterexample(fact, key, lv, rv))
    return FactCheck(fact, tuple(bad))


def quote_value(value: str) -> str:
    """One value as an SQL string literal."""
    return "'" + value.replace("'", "''") + "'"


def emit_inserts_by_rows(spec: Specification, d: KeyDiagram) -> str:
    """``sqlgen.emit_inserts`` quoting one value at a time."""
    g = spec.graph
    out: list[str] = []
    for t in g.types:
        aspect_ids = [a.id for a in g.aspects_from.get(t.id, ())]
        col_list = ", ".join(f'"{c}"' for c in ["Id"] + aspect_ids)
        for key in sorted(d.sets.get(t.id, frozenset())):
            values = [key] + [d.funcs[aid][key] for aid in aspect_ids]
            rendered = ", ".join(quote_value(v) for v in values)
            out.append(f'INSERT INTO "{t.id}" ({col_list}) VALUES ({rendered});')
    return "\n".join(out) + ("\n" if out else "")


def pullback_instances_by_keys(h: GraphMorphism, d2: KeyDiagram) -> KeyDiagram:
    """``flow.pullback_instances`` evaluating one key at a time."""
    sets = {t.id: d2.sets[h.type_map[t.id]] for t in h.src.types}
    funcs = {}
    for a in h.src.aspects:
        img = h.aspect_map[a.id]
        funcs[a.id] = {k: eval_path(d2, img, k) for k in sorted(sets[a.src])}
    return KeyDiagram(sets=sets, funcs=funcs)


def tupling_by_keys(d: KeyDiagram, target: str, projections) -> dict[str, tuple[str, ...]]:
    """Each target key's tuple of leg values, one key at a time, in sorted key order."""
    return {
        x: tuple(d.funcs[aid][x] for aid in projections)
        for x in sorted(d.sets.get(target, frozenset()))
    }


def bijection_onto_by_keys(
    kind: str, target: str, got: dict[str, tuple[str, ...]], want: set
) -> CheckResult:
    """Is the tupling ``got`` a bijection onto ``want``? One loop over the keys
    names the first extra or duplicated tuple, else the least missing one."""
    seen: dict[tuple[str, ...], str] = {}
    for x, tup in got.items():
        if tup not in want:
            return CheckResult(kind, target, False, f"extra tuple {tup} from key '{x}'")
        if tup in seen:
            return CheckResult(
                kind, target, False,
                f"duplicated tuple {tup} from keys '{seen[tup]}' and '{x}'",
            )
        seen[tup] = x
    missing = want - set(seen)
    if missing:
        return CheckResult(kind, target, False, f"missing tuple {sorted(missing)[0]}")
    return CheckResult(kind, target, True)


def limit_by_keys(d: KeyDiagram, decl: ProductDecl | PullbackDecl) -> list[tuple[str, ...]]:
    """The limit of ``decl``: every tuple of sorted factor keys, or every pair
    of sorted leg keys whose cospan values agree, in that order."""
    key_sets = [sorted(d.sets.get(t, frozenset())) for t, _ in legs(decl)]
    if isinstance(decl, ProductDecl):
        return list(iter_product(*key_sets))
    (bs, cs), (pf, pg) = key_sets, decl.cospan
    return [(b, c) for b in bs for c in cs if eval_path(d, pf, b) == eval_path(d, pg, c)]


def check_limit_by_keys(d: KeyDiagram, decl: ProductDecl | PullbackDecl) -> CheckResult:
    """``sketch.check_limit`` with the per-key tupling and bijection test."""
    want = set(limit_by_keys(d, decl))
    got = tupling_by_keys(d, decl.target, [aid for _, aid in legs(decl)])
    return bijection_onto_by_keys(decl.kind, decl.target, got, want)


def check_coproduct_by_keys(d: KeyDiagram, decl: CoproductDecl) -> CheckResult:
    """``sketch.check_coproduct`` deciding by one loop over the summand keys."""
    target_keys = set(d.sets.get(decl.target, frozenset()))
    covered: dict[str, tuple[str, str]] = {}
    for tid, aid in decl.summands:
        seen: dict[str, str] = {}
        for k in sorted(d.sets.get(tid, frozenset())):
            v = d.funcs[aid][k]
            if v in seen:
                return CheckResult(
                    decl.kind, decl.target, False,
                    f"inclusion '{aid}' is not injective: '{seen[v]}' and '{k}' "
                    f"both map to '{v}'",
                )
            seen[v] = k
            if v in covered:
                return CheckResult(
                    decl.kind, decl.target, False,
                    f"target key '{v}' is hit by both '{covered[v][0]}' and '{aid}'",
                )
            covered[v] = (aid, k)
    uncovered = target_keys - set(covered)
    if uncovered:
        return CheckResult(
            decl.kind, decl.target, False,
            f"target key '{sorted(uncovered)[0]}' is not included from any summand",
        )
    return CheckResult(decl.kind, decl.target, True)


def pushout_classes_by_keys(d: KeyDiagram, decl: PushoutDecl) -> dict[str, list[str]]:
    """The pushout quotient, one apex key at a time."""
    (_, ab), (_, ac) = legs(decl)
    pf, pg = decl.span
    uf = UnionFind([
        encode_tagged(aid, k)
        for tid, aid in legs(decl)
        for k in sorted(d.sets.get(tid, frozenset()))
    ])
    apex = pf.source
    for akey in sorted(d.sets.get(apex, frozenset())):
        uf.union(
            encode_tagged(ab, eval_path(d, pf, akey)),
            encode_tagged(ac, eval_path(d, pg, akey)),
        )
    return {rep: sorted(members) for rep, members in uf.classes().items()}


def check_pushout_by_keys(d: KeyDiagram, decl: PushoutDecl) -> CheckResult:
    """``sketch.check_pushout`` deciding by one loop over the classes."""
    tagged_val = {
        encode_tagged(aid, k): d.funcs[aid][k]
        for tid, aid in legs(decl)
        for k in d.sets.get(tid, frozenset())
    }

    classes = pushout_classes_by_keys(d, decl)
    class_of: dict[str, str] = {}  # target key -> the class the induced map sends to it
    for rep, members in sorted(classes.items()):
        values = sorted({tagged_val[m] for m in members})
        if len(values) > 1:
            return CheckResult(
                "pushout", decl.target, False,
                f"identified keys {members} land on distinct targets {values}",
            )
        val = values[0]
        if val in class_of:
            return CheckResult(
                "pushout", decl.target, False,
                f"distinct classes '{class_of[val]}' and '{rep}' both map to '{val}'",
            )
        class_of[val] = rep
    uncovered = set(d.sets.get(decl.target, frozenset())) - class_of.keys()
    if uncovered:
        return CheckResult(
            "pushout", decl.target, False,
            f"target key '{sorted(uncovered)[0]}' is not reached from either leg",
        )
    return CheckResult("pushout", decl.target, True)


def check_injective_by_keys(d: KeyDiagram, graph: Graph, aspect_id: str) -> CheckResult:
    """``sketch.check_injective`` deciding by one loop over the keys."""
    fn = d.funcs[aspect_id]
    seen: dict[str, str] = {}
    for k in sorted(d.sets.get(graph.aspect_by_id[aspect_id].src, frozenset())):
        v = fn[k]
        if v in seen:
            return CheckResult(
                "injective", aspect_id, False,
                f"keys '{seen[v]}' and '{k}' share the image '{v}'",
            )
        seen[v] = k
    return CheckResult("injective", aspect_id, True)


def check_image_by_keys(d: KeyDiagram, graph: Graph, decl: ImageDecl) -> CheckResult:
    """``sketch.check_image`` comparing the factorization one key at a time."""
    surj = check_surjective(d, graph, decl.surjection)
    if not surj.passed:
        return CheckResult("image", decl.target, False, surj.witness)
    inj = check_injective_by_keys(d, graph, decl.injection)
    if not inj.passed:
        return CheckResult("image", decl.target, False, inj.witness)
    for k in sorted(d.sets.get(decl.of.source, frozenset())):
        via = d.funcs[decl.injection][d.funcs[decl.surjection][k]]
        direct = eval_path(d, decl.of, k)
        if via != direct:
            return CheckResult(
                "image", decl.target, False,
                f"factorization disagrees at '{k}': {via} vs {direct}",
            )
    return CheckResult("image", decl.target, True)


def synthesize_by_keys(decl: SketchDecl, d: KeyDiagram) -> KeyDiagram:
    """``sketch.synthesize`` filling the colimits and images one key at a time."""
    if d.sets.get(decl.target):
        raise SynthesisError(
            f"target '{decl.target}' is already populated; refusing to overwrite"
        )
    sets = dict(d.sets)
    funcs = {k: dict(v) for k, v in d.funcs.items()}
    for aid in synthesized_aspects(decl):
        funcs.setdefault(aid, {})

    if isinstance(decl, (ProductDecl, PullbackDecl)):
        tuples = limit_by_keys(d, decl)
        keys = list(map(encode_tuple, tuples))
        for i, (_, aid) in enumerate(legs(decl)):
            funcs[aid].update(zip(keys, [t[i] for t in tuples]))
        sets[decl.target] = frozenset(keys)
    elif isinstance(decl, CoproductDecl):
        keys = []
        for tid, aid in decl.summands:
            for k in sorted(d.sets.get(tid, frozenset())):
                key = encode_tagged(aid, k)
                keys.append(key)
                funcs[aid][k] = key
        sets[decl.target] = frozenset(keys)
    elif isinstance(decl, PushoutDecl):
        classes = pushout_classes_by_keys(d, decl)
        rep_of = {m: rep for rep, members in classes.items() for m in members}
        sets[decl.target] = frozenset(classes)
        for tid, aid in legs(decl):
            for k in d.sets.get(tid, frozenset()):
                funcs[aid][k] = rep_of[encode_tagged(aid, k)]
    else:
        values = sorted(
            {eval_path(d, decl.of, k) for k in d.sets.get(decl.of.source, frozenset())}
        )
        sets[decl.target] = frozenset(values)
        for k in d.sets.get(decl.of.source, frozenset()):
            funcs[decl.surjection][k] = eval_path(d, decl.of, k)
        for v in values:
            funcs[decl.injection][v] = v

    return KeyDiagram(sets=sets, funcs=funcs)


def pairs_within_by_sorting(keyed) -> tuple[Fact, ...]:
    """Every ordered pair of paths that share a key, sorted.

    ``keyed`` yields (path, key) pairs, one per path, and paths that share a
    key are parallel. The answer is built group by group, so its cost
    follows the pairs emitted.
    """
    groups: dict = {}
    group_of: dict[Path, list[Path]] = {}
    for p, key in keyed:
        group = group_of[p] = groups.setdefault(key, [])
        group.append(p)
    for group in groups.values():
        group.sort()
    return tuple(Fact(p, q) for p in sorted(group_of) for q in group_of[p])


# A `#` outside a string starts a comment, which runs to the end of the text
# tokenized: one line of a file, or all of a fact given on the command line.
TOKEN_RE_BY_GROUPS = re.compile(
    rf"""
    (?P<STRING>"[^"\n]*")
  | (?P<COMMENT>\#(?s:.*))
  | (?P<IDENT>{_ID})
  | (?P<OP>->|=>|\*_|\+_|[{{}}();,=:*+])
  | (?P<WS>[ \t]+)
  | (?P<BAD>.)
    """,
    re.VERBOSE,
)


class TokByGroups(NamedTuple):
    kind: str
    text: str
    span: SourceSpan


def tokenize_by_groups(self: _Parser, line: str, lineno: int):
    """One line's tokens and the line's span; each unexpected character is
    an error on ``self`` and dropped."""
    toks: list[TokByGroups] = []
    for m in TOKEN_RE_BY_GROUPS.finditer(line):
        if m.lastgroup in ("WS", "COMMENT"):
            continue
        span = SourceSpan(self.filename, lineno, m.start() + 1)
        if m.lastgroup == "BAD":
            self.error(f"unexpected character '{m.group()}'", span)
        else:
            toks.append(TokByGroups(m.lastgroup, m.group(), span))
    return toks, SourceSpan(self.filename, lineno, 1)


_ID_RE = re.compile(_ID)


def _text_errors_by_kinds(kind: str, ident: str, label: str) -> list[str]:
    errs: list[str] = []
    if ident in KEYWORDS:
        errs.append(f"{kind} id '{ident}' is reserved")
    elif not _ID_RE.fullmatch(ident):
        errs.append(f"{kind} id {ident!r} is not an ASCII identifier")
    if '"' in label or label.splitlines() not in ([], [label]):
        errs.append(f"{kind} '{ident}' has a label with a quote or a line break")
    return errs


def validate_specification_by_kinds(spec: Specification) -> list[str]:
    g = spec.graph
    problems: list[str] = []
    if not _ID_RE.fullmatch(spec.name):
        problems.append(f"name {spec.name!r} is not an ASCII identifier")

    seen_types: set[str] = set()
    for t in g.types:
        if t.id in seen_types:
            problems.append(f"duplicate type id '{t.id}'")
        seen_types.add(t.id)
        if not t.label:
            problems.append(f"type '{t.id}' has an empty label")
        problems.extend(_text_errors_by_kinds("type", t.id, t.label))

    seen_aspects: set[str] = set()
    for a in g.aspects:
        if a.id in seen_aspects:
            problems.append(f"duplicate aspect id '{a.id}'")
        seen_aspects.add(a.id)
        problems.extend(_text_errors_by_kinds("aspect", a.id, a.label))
        if a.id == "Id":
            problems.append("aspect id 'Id' names the key column of every table")
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

    return problems + validate_decls(spec)


# --- the path rules as each checker walked them ------------------------------


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


def path_target_by_errors(graph: Graph, path: Path) -> str:
    """Target type of a well-formed path (its source if it is an identity)."""
    errs = path_errors(graph, path)
    if errs:
        raise OlogError(errs[0])
    if path.is_identity:
        return path.source
    return graph.aspect_by_id[path.edges[-1]].tgt


def fact_errors_by_walks(graph: Graph, fact: Fact) -> list[str]:
    errs = path_errors(graph, fact.lhs) + path_errors(graph, fact.rhs)
    if errs:
        return errs
    if fact.lhs.source != fact.rhs.source:
        errs.append(
            f"fact sides start at different types: "
            f"'{fact.lhs.source}' vs '{fact.rhs.source}'"
        )
        return errs
    lt = path_target_by_errors(graph, fact.lhs)
    rt = path_target_by_errors(graph, fact.rhs)
    if lt != rt:
        errs.append(f"fact sides end at different types: '{lt}' vs '{rt}'")
    return errs


def decl_errors_by_walks(graph: Graph, decl: SketchDecl) -> list[str]:
    problems: list[str] = []
    ctx = f"{type(decl).__name__} on '{decl.target}'"

    def need_type(tid: str):
        if not graph.has_type(tid):
            problems.append(f"{ctx}: unknown type '{tid}'")
            return False
        return True

    known = need_type(decl.target)

    def need_arrow(role: str, aid: str, src: str, tgt: str):
        a = graph.aspect_by_id.get(aid)
        if a is None:
            problems.append(f"{ctx}: unknown aspect '{aid}'")
        elif known and (a.src, a.tgt) != (src, tgt):
            problems.append(
                f"{ctx}: {role} must run {src} -> {tgt}, it runs {a.src} -> {a.tgt}"
            )

    def need_path(p: Path, src: str, tgt: str | None):
        errs = path_errors(graph, p)
        if errs:
            problems.append(f"{ctx}: {errs[0]}")
            return
        if p.source != src:
            problems.append(f"{ctx}: path {format_path(p)} must start at '{src}'")
        elif tgt is not None and path_target_by_errors(graph, p) != tgt:
            problems.append(f"{ctx}: path {format_path(p)} must end at '{tgt}'")

    if isinstance(decl, (ProductDecl, PullbackDecl)):
        for tid, aid in legs(decl):
            if need_type(tid):
                need_arrow(f"projection '{aid}'", aid, decl.target, tid)
    elif isinstance(decl, (CoproductDecl, PushoutDecl)):
        for tid, aid in legs(decl):
            if need_type(tid):
                need_arrow(f"inclusion '{aid}'", aid, tid, decl.target)

    if isinstance(decl, PullbackDecl):
        pf, pg = decl.cospan
        need_path(pf, decl.leg_b[0], None)
        need_path(pg, decl.leg_c[0], None)
        if not (path_errors(graph, pf) or path_errors(graph, pg)):
            if path_target_by_errors(graph, pf) != path_target_by_errors(graph, pg):
                problems.append(f"{ctx}: cospan paths end at different types")
    elif isinstance(decl, PushoutDecl):
        pf, pg = decl.span
        if path_errors(graph, pf) or path_errors(graph, pg):
            problems.extend(f"{ctx}: {e}" for e in path_errors(graph, pf))
            problems.extend(f"{ctx}: {e}" for e in path_errors(graph, pg))
        elif pf.source != pg.source:
            problems.append(f"{ctx}: span paths start at different types")
        else:
            need_path(pf, pf.source, decl.leg_b[0])
            need_path(pg, pg.source, decl.leg_c[0])
    elif isinstance(decl, ImageDecl):
        errs = path_errors(graph, decl.of)
        if errs:
            problems.append(f"{ctx}: {errs[0]}")
        else:
            need_arrow("surjection part", decl.surjection, decl.of.source, decl.target)
            need_arrow("injection part", decl.injection, decl.target,
                       path_target_by_errors(graph, decl.of))

    aids = synthesized_aspects(decl)
    for aid in dict.fromkeys(a for a in aids if aids.count(a) > 1):
        problems.append(f"{ctx}: aspect '{aid}' is used for more than one part")
    return problems


def morphism_errors_by_walks(h: GraphMorphism) -> list[str]:
    problems = [f"unknown source type '{t}'" for t in h.type_map if not h.src.has_type(t)]
    problems += [
        f"unknown source aspect '{a}'" for a in h.aspect_map if not h.src.has_aspect(a)
    ]
    for t in h.src.types:
        img = h.type_map.get(t.id)
        if img is None:
            problems.append(f"type '{t.id}' is not mapped")
        elif not h.tgt.has_type(img):
            problems.append(f"type '{t.id}' maps to unknown type '{img}'")
    for a in h.src.aspects:
        img = h.aspect_map.get(a.id)
        if img is None:
            problems.append(f"aspect '{a.id}' is not mapped")
            continue
        errs = path_errors(h.tgt, img)
        if errs:
            problems.append(f"aspect '{a.id}': image {errs[0]}")
            continue
        want_src = h.type_map.get(a.src)
        want_tgt = h.type_map.get(a.tgt)
        if want_src is not None and img.source != want_src:
            problems.append(
                f"aspect '{a.id}': image starts at '{img.source}', "
                f"expected '{want_src}'"
            )
        if want_tgt is not None and path_target_by_errors(h.tgt, img) != want_tgt:
            problems.append(
                f"aspect '{a.id}': image ends at '{path_target_by_errors(h.tgt, img)}', "
                f"expected '{want_tgt}'"
            )
    return problems


def close_by_union_loop(spec: Specification, bound: int) -> tuple[PathUniverse, tuple]:
    g = spec.graph
    for fact in spec.facts:
        errs = fact_errors(g, fact)
        if errs:
            raise OlogError(f"declared fact {format_fact(fact)}: {errs[0]}")
        check_fits(fact, bound, "declared")

    u = path_universe(g, bound)
    end, right, start = u.end, u.right, u.start
    # level[k]: the paths shorter than k, whose ids come first, for k up to
    # bound + 1 (bound is at least 1).
    lengths = [len(p.edges) for p in u.paths]
    level = [bisect_left(lengths, k) for k in range(bound + 2)]
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
    ids = {p: i for i, p in enumerate(u.paths)}
    pending = [(ids[f.lhs], ids[f.rhs]) for f in spec.facts]
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
    return u, tuple(parent)
