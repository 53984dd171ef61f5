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
``DataclassPath`` and ``DataclassFact`` are ``core.Path`` and ``core.Fact``
as they were before they became named tuples, kept to pin the value contract;
``DataclassSourceSpan`` and ``DataclassParseDiagnostic`` do the same for
``dsl.SourceSpan`` and ``dsl.ParseDiagnostic``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product

from olog.core import (
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
from olog.entail import Congruence, _canon_key, _check_bound, check_fits, saturate
from olog.errors import BoundExceededError, OlogError, SynthesisError
from olog.flow import is_spec_morphism, translate_fact
from olog.instances import KeyDiagram, eval_path, satisfies_fact
from olog.sketch import CheckResult, _bijection_onto, _tupling, encode_tuple
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


def enumerate_equations(graph: Graph, bound: int) -> tuple[Fact, ...]:
    """Every ordered pair of parallel paths with both sides of length <= bound.

    Includes the reflexive pairs. Deterministic order (sorted by path pairs).
    """
    _check_bound(bound)
    by_endpoints: dict[tuple[str, str], list[Path]] = {}
    for p in enumerate_paths(graph, bound):
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
    paths = enumerate_paths(graph, bound)
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
    ``entail._canon_key``: shortest first, ties broken by edge ids."""

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
    uf = CanonUnionFind(enumerate_paths(g, bound))

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
    universe = enumerate_paths(g, bound)
    in_universe = set(universe)
    uf = CanonUnionFind(universe)

    for fact in spec.facts:
        errs = fact_errors(g, fact)
        if errs:
            raise OlogError(f"declared fact {format_fact(fact)}: {errs[0]}")
        if fact.lhs not in in_universe or fact.rhs not in in_universe:
            raise BoundExceededError(
                f"declared fact '{format_fact(fact)}' has a side longer than bound {bound}",
                fact=fact,
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
    a target with several incoming edges is saturated once per edge."""
    if bound in sys._passed_bounds:
        return []
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
        except BoundExceededError as exc:
            problems.append(f"edge '{eid}': {exc}")
            continue
        for f in offenders:
            problems.append(f"edge '{eid}': fact {format_fact(f)} is not preserved")
    if not problems:
        sys._passed_bounds.add(bound)
    return problems


def consequence_by_pairs(spec: Specification, bound: int) -> tuple[Fact, ...]:
    """``entail.consequence`` as every candidate pair tested against the classes."""
    cong = saturate(spec, bound)
    out = [f for f in enumerate_equations(spec.graph, bound) if cong.same(f.lhs, f.rhs)]
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
    cong = saturate(target_spec, tb)
    out = []
    for fact in enumerate_equations(h.src, bound):
        img = translate_fact(h, fact)
        if len(img.lhs) > tb or len(img.rhs) > tb:
            continue
        if cong.same(img.lhs, img.rhs):
            out.append(fact)
    return tuple(out)


def system_consequence_by_pairs(sys, bound: int) -> dict[str, Specification]:
    """``system.system_consequence`` as every candidate pair per node."""
    fused = fusion(sys, bound)
    channel = optimal_channel(sys.distributed())
    cong = saturate(fused, bound)
    out: dict[str, Specification] = {}
    for n in sys.shape.nodes:
        g = sys.specs[n].graph
        facts = []
        for fact in enumerate_equations(g, bound):
            img = translate_fact(channel.links[n], fact)
            if cong.same(img.lhs, img.rhs):
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
    got = _tupling(d, decl.target, [ab, ac])
    return _bijection_onto("pullback", decl.target, got, want)


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
    got = _tupling(d, decl.target, [aid for _, aid in decl.factors])
    return _bijection_onto(decl.kind, decl.target, got, want)


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


def simulate_foreign_keys(sql_text: str) -> list[str]:
    """Check INSERT rows against the FOREIGN KEY clauses of the DDL in the
    same text. Returns violation messages (empty when consistent)."""
    import re

    fks: dict[str, list[tuple[str, str]]] = {}
    table = None
    for line in sql_text.splitlines():
        m = re.match(r"CREATE TABLE (\w+) \(", line)
        if m:
            table = m.group(1)
            fks.setdefault(table, [])
        m = re.match(r"\s*FOREIGN KEY \((\w+)\) REFERENCES (\w+) \(Id\)", line)
        if m and table:
            fks[table].append((m.group(1), m.group(2)))

    columns: dict[str, list[str]] = {}
    rows: dict[str, list[dict[str, str]]] = {}
    for line in sql_text.splitlines():
        m = re.match(r"INSERT INTO (\w+) \(([^)]*)\) VALUES \((.*)\);", line)
        if not m:
            continue
        tname, cols, vals = m.group(1), m.group(2).split(", "), m.group(3)
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
