"""Sketch annotations checked against instance data.

The declarations (products, pullbacks, coproducts, pushouts, singleton and
empty types, images) and their structural checks are in :mod:`olog.core`.
Here they, and injective and surjective aspects, are verified semantically on
finite key diagrams using the set-level constructions directly. They are
never used as inference rules by the entailment engine; that keeps the
congruence sound while the sketch semantics stay where they are decidable.

Synthesized instance sets use canonical key encodings so generated files are
stable: tuples ``(k1,k2)``, tagged members ``in<aspect>:k``, and pushout
class representatives (the least tagged member).
"""

from __future__ import annotations

from collections import Counter
from itertools import product as iter_product
from math import prod
from typing import Iterator

from .core import (
    DEFAULT_BOUND,
    Aspect,
    CoproductDecl,
    Fact,
    Graph,
    ImageDecl,
    Path,
    ProductDecl,
    PullbackDecl,
    PushoutDecl,
    SketchDecl,
    Specification,
    UnionFind,
    compose_paths,
    format_path,
    id_errors,
    identity_path,
    legs,
    path_target,
    synthesized_aspects,
    record,
)
from .errors import OlogError, SketchError, SynthesisError
from .instances import KeyDiagram, eval_column


def encode_tuple(keys) -> str:
    return "(" + ",".join(keys) + ")"


def encode_tagged(aspect_id: str, key: str) -> str:
    return f"in{aspect_id}:{key}"


def _tag_column(aspect_id: str, keys) -> list[str]:
    """:func:`encode_tagged` of each key."""
    return list(map(encode_tagged(aspect_id, "").__add__, keys))


def _rows(columns: list[list[str]], n: int):
    """The ``n`` rows of ``columns`` as tuples; empty tuples if there are no columns."""
    return zip(*columns) if columns else [()] * n


# ---------------------------------------------------------------------------
# Semantic checks


@record
class CheckResult:
    kind: str
    subject: str
    passed: bool
    witness: str = ""

    @property
    def verdict(self) -> str:
        return "check-passed" if self.passed else "check-failed"


def _cospan_values(d: KeyDiagram, decl: PullbackDecl) -> tuple[dict[str, str], dict[str, str]]:
    """Each leg key of a pullback with its cospan value, evaluated once; none if a leg is empty."""
    bs, cs = (d.sets.get(t, frozenset()) for t, _ in legs(decl))
    if not bs or not cs:
        return {}, {}
    pf, pg = decl.cospan
    gc = dict(zip(cs, eval_column(d, pg, cs)))
    return dict(zip(bs, eval_column(d, pf, bs))), gc


def _limit(d: KeyDiagram, decl: ProductDecl | PullbackDecl,
           values: tuple[dict, dict] | None = None) -> Iterator[tuple[str, ...]]:
    """The tuples of leg keys that form the limit of ``decl``, lazily and sorted.

    A product takes every tuple of sorted factor keys; with zero factors that
    is one empty tuple. A pullback takes the pairs (b, c) that agree along the
    cospan, by a hash join on the :func:`_cospan_values`, evaluated here
    unless ``values`` gives them: the cost is |B| + |C| + pairs, not |B|·|C|.
    """
    if isinstance(decl, ProductDecl):
        return iter_product(*(d.keys(t) for t, _ in legs(decl)))
    fb, gc = values or _cospan_values(d, decl)
    bucket: dict[str, list[str]] = {}
    for c in sorted(gc):
        bucket.setdefault(gc[c], []).append(c)
    return ((b, c) for b in sorted(fb) for c in bucket.get(fb[b], ()))


def _limit_tuples(d: KeyDiagram, decl: ProductDecl | PullbackDecl) -> list[tuple[str, ...]]:
    """:func:`_limit` as a list."""
    return list(_limit(d, decl))


def check_limit(d: KeyDiagram, decl: ProductDecl | PullbackDecl) -> CheckResult:
    """Tupling along the legs must biject onto the limit's tuples.

    Decided by counts over the target's unsorted rows, without building the
    limit: the tupling is a bijection exactly when every row lies in the
    limit, no two rows agree, and there are as many rows as the limit has
    tuples. A pullback's limit has Σ_v |f⁻¹(v)|·|g⁻¹(v)| tuples, from the
    :func:`_cospan_values`; a product's has the product of the factor sizes,
    so a singleton's target must have exactly one key.

    Only a failure sorts keys, to name its witness: the first target key, in
    sorted order, whose tuple lies outside the limit or repeats an earlier
    key's, else the first tuple of the sorted :func:`_limit` that no row takes.
    """
    parts = legs(decl)
    xs = list(d.sets.get(decl.target, frozenset()))
    cols = [list(map(d.funcs[aid].__getitem__, xs)) for _, aid in parts]
    values = None
    if isinstance(decl, PullbackDecl):
        values = fb, gc = _cospan_values(d, decl)
        nb, nc = Counter(fb.values()), Counter(gc.values())
        size = sum(k * nc[v] for v, k in nb.items())
        vb, vc = list(map(fb.get, cols[0])), list(map(gc.get, cols[1]))
        all_inside = None not in vb and vb == vc

        def inside(tup):
            return tup[0] in fb and tup[1] in gc and fb[tup[0]] == gc[tup[1]]
    else:
        factors = [d.sets.get(t, frozenset()) for t, _ in parts]
        size = prod(map(len, factors))
        all_inside = all(s.issuperset(col) for s, col in zip(factors, cols))

        def inside(tup):
            return all(k in s for k, s in zip(tup, factors))

    rows = set(_rows(cols, len(xs)))
    if all_inside and len(rows) == len(xs) == size:
        return CheckResult(decl.kind, decl.target, True)
    if not all_inside or len(rows) < len(xs):
        got = dict(zip(xs, _rows(cols, len(xs))))
        seen: dict[tuple[str, ...], str] = {}
        for x in d.keys(decl.target):
            tup = got[x]
            if not inside(tup):
                return CheckResult(decl.kind, decl.target, False,
                                   f"extra tuple {tup} from key '{x}'")
            if tup in seen:
                return CheckResult(
                    decl.kind, decl.target, False,
                    f"duplicated tuple {tup} from keys '{seen[tup]}' and '{x}'",
                )
            seen[tup] = x
    # The rows are distinct limit tuples, too few: name the first one missing.
    missing = next(t for t in _limit(d, decl, values) if t not in rows)
    return CheckResult(decl.kind, decl.target, False, f"missing tuple {missing}")


check_product = check_pullback = check_limit


def check_coproduct(d: KeyDiagram, decl: CoproductDecl) -> CheckResult:
    """Inclusions must be injective with pairwise disjoint images covering the target."""
    target_keys = set(d.sets.get(decl.target, frozenset()))
    # Injective and disjoint exactly when no value repeats across the
    # summands; the loop below only finds the first witness of a failure.
    hits: list[str] = []
    for tid, aid in decl.summands:
        hits += map(d.funcs[aid].__getitem__, d.sets.get(tid, frozenset()))
    hit = set(hits)
    if len(hit) == len(hits) and hit >= target_keys:
        return CheckResult(decl.kind, decl.target, True)
    covered: dict[str, tuple[str, str]] = {}
    for tid, aid in decl.summands:
        seen: dict[str, str] = {}
        for k in d.keys(tid):
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
    # No value repeats, so the inclusions miss a target key.
    uncovered = target_keys - set(covered)
    return CheckResult(
        decl.kind, decl.target, False,
        f"target key '{sorted(uncovered)[0]}' is not included from any summand",
    )


def _pushout_quotient(d: KeyDiagram, decl: PushoutDecl,
                      ends: tuple[list, list] | None = None) -> UnionFind:
    """Quotient the tagged union of the legs by the span identifications.

    ``ends`` are the span's columns over the unsorted apex keys, evaluated
    here unless given; roots are least members, so union order is free. The
    universe is sorted, so classes come in the order of their representatives.
    """
    (_, ab), (_, ac) = legs(decl)
    pf, pg = decl.span
    if ends is None:
        apex = d.sets.get(pf.source, frozenset())
        ends = eval_column(d, pf, apex), eval_column(d, pg, apex)
    universe: list[str] = []
    for tid, aid in legs(decl):
        universe += _tag_column(aid, d.sets.get(tid, frozenset()))
    uf = UnionFind(sorted(universe))
    for b, c in zip(_tag_column(ab, ends[0]), _tag_column(ac, ends[1])):
        uf.union(b, c)
    return uf


def check_pushout(d: KeyDiagram, decl: PushoutDecl) -> CheckResult:
    """The map from the span quotient to the target must be a bijection.

    Decided by counts, without building the quotient: the map is well
    defined exactly when the square commutes on the apex keys, and it is
    then a bijection exactly when it has as many classes as target keys hit
    and every target key is hit. The classes number |B| + |C| less the
    merges of a union-find over the keys the span reaches. Only a failure
    builds the quotient, from the same span columns, to name its witness.
    """
    (tb, ab), (tc, ac) = legs(decl)
    pf, pg = decl.span
    apex = d.sets.get(pf.source, frozenset())
    fs, gs = eval_column(d, pf, apex), eval_column(d, pg, apex)
    into_b, into_c = d.funcs[ab], d.funcs[ac]
    target_keys = d.sets.get(decl.target, frozenset())
    if list(map(into_b.__getitem__, fs)) == list(map(into_c.__getitem__, gs)):
        bs, cs = d.sets.get(tb, frozenset()), d.sets.get(tc, frozenset())
        ends_b, ends_c = _tag_column(ab, fs), _tag_column(ac, gs)
        uf = UnionFind(ends_b + ends_c)
        classes = len(bs) + len(cs) - sum(map(uf.union, ends_b, ends_c))
        hit = set(map(into_b.__getitem__, bs))
        hit.update(map(into_c.__getitem__, cs))
        if classes == len(hit) and hit.issuperset(target_keys):
            return CheckResult("pushout", decl.target, True)

    tagged_val: dict[str, str] = {}
    for tid, aid in legs(decl):
        keys = list(d.sets.get(tid, frozenset()))
        tagged_val.update(zip(_tag_column(aid, keys), map(d.funcs[aid].__getitem__, keys)))
    uf = _pushout_quotient(d, decl, (fs, gs))
    class_of: dict[str, str] = {}  # target key -> the class the induced map sends to it
    for rep, members in uf.classes().items():
        values = set(map(tagged_val.__getitem__, members))
        if len(values) > 1:
            return CheckResult(
                "pushout", decl.target, False,
                f"identified keys {members} land on distinct targets {sorted(values)}",
            )
        (val,) = values
        if val in class_of:
            return CheckResult(
                "pushout", decl.target, False,
                f"distinct classes '{class_of[val]}' and '{rep}' both map to '{val}'",
            )
        class_of[val] = rep
    # The induced map is well defined and injective, so it misses a target key.
    uncovered = set(target_keys) - class_of.keys()
    return CheckResult(
        "pushout", decl.target, False,
        f"target key '{sorted(uncovered)[0]}' is not reached from either leg",
    )


def check_injective(d: KeyDiagram, graph: Graph, aspect_id: str) -> CheckResult:
    fn, src = d.funcs[aspect_id], graph.aspect_by_id[aspect_id].src
    keys = d.sets.get(src, frozenset())
    # Injective exactly when no value repeats; the loop below only finds the
    # first witness of a failure.
    if len(set(map(fn.__getitem__, keys))) == len(keys):
        return CheckResult("injective", aspect_id, True)
    seen: dict[str, str] = {}
    for k in d.keys(src):
        v = fn[k]
        if v in seen:
            break
        seen[v] = k
    return CheckResult(
        "injective", aspect_id, False, f"keys '{seen[v]}' and '{k}' share the image '{v}'"
    )


def check_surjective(d: KeyDiagram, graph: Graph, aspect_id: str) -> CheckResult:
    a = graph.aspect_by_id[aspect_id]
    hit = {d.funcs[aspect_id][k] for k in d.sets.get(a.src, frozenset())}
    unhit = set(d.sets.get(a.tgt, frozenset())) - hit
    if unhit:
        return CheckResult(
            "surjective", aspect_id, False, f"target key '{sorted(unhit)[0]}' is never hit"
        )
    return CheckResult("surjective", aspect_id, True)


def check_image(d: KeyDiagram, graph: Graph, decl: ImageDecl) -> CheckResult:
    surj = check_surjective(d, graph, decl.surjection)
    if not surj.passed:
        return CheckResult("image", decl.target, False, surj.witness)
    inj = check_injective(d, graph, decl.injection)
    if not inj.passed:
        return CheckResult("image", decl.target, False, inj.witness)
    keys = d.sets.get(decl.of.source, frozenset())
    vias = eval_column(d, Path(decl.of.source, (decl.surjection, decl.injection)), keys)
    directs = eval_column(d, decl.of, keys)
    if vias != directs:
        k, via, direct = min(t for t in zip(keys, vias, directs) if t[1] != t[2])
        return CheckResult(
            "image", decl.target, False,
            f"factorization disagrees at '{k}': {via} vs {direct}",
        )
    return CheckResult("image", decl.target, True)


def check_decl(d: KeyDiagram, graph: Graph, decl: SketchDecl) -> CheckResult:
    if isinstance(decl, CoproductDecl):
        return check_coproduct(d, decl)
    if isinstance(decl, PushoutDecl):
        return check_pushout(d, decl)
    if isinstance(decl, ImageDecl):
        return check_image(d, graph, decl)
    return check_limit(d, decl)


def check_all(d: KeyDiagram, spec: Specification) -> list[CheckResult]:
    """Every sketch declaration plus every declared injective/surjective modifier."""
    results = [check_decl(d, spec.graph, decl) for decl in spec.sketch]
    for a in spec.graph.aspects:
        if "injective" in a.modifiers:
            results.append(check_injective(d, spec.graph, a.id))
        if "surjective" in a.modifiers:
            results.append(check_surjective(d, spec.graph, a.id))
    return results


# ---------------------------------------------------------------------------
# Synthesis


def synthesize(decl: SketchDecl, d: KeyDiagram) -> KeyDiagram:
    """Populate the declaration's target canonically from the other participants.

    Refuses if the target set is already populated. For a declaration that
    :func:`decl_errors` accepts, the result passes the corresponding check.
    """
    if d.sets.get(decl.target):
        raise SynthesisError(
            f"target '{decl.target}' is already populated; refusing to overwrite"
        )
    sets = dict(d.sets)
    funcs = {k: dict(v) for k, v in d.funcs.items()}
    for aid in synthesized_aspects(decl):
        funcs.setdefault(aid, {})

    if isinstance(decl, (ProductDecl, PullbackDecl)):
        tuples = _limit_tuples(d, decl)
        keys = list(map(encode_tuple, tuples))
        for i, (_, aid) in enumerate(legs(decl)):
            funcs[aid].update(zip(keys, [t[i] for t in tuples]))
        sets[decl.target] = frozenset(keys)
    elif isinstance(decl, CoproductDecl):
        keys = []
        for tid, aid in decl.summands:
            ks = d.keys(tid)
            tagged = _tag_column(aid, ks)
            keys += tagged
            funcs[aid].update(zip(ks, tagged))
        sets[decl.target] = frozenset(keys)
    elif isinstance(decl, PushoutDecl):
        classes = _pushout_quotient(d, decl).classes()
        rep_of = {m: rep for rep, members in classes.items() for m in members}
        sets[decl.target] = frozenset(classes)
        for tid, aid in legs(decl):
            ks = list(d.sets.get(tid, frozenset()))
            funcs[aid].update(zip(ks, map(rep_of.__getitem__, _tag_column(aid, ks))))
    else:
        ks = list(d.sets.get(decl.of.source, frozenset()))
        col = eval_column(d, decl.of, ks)
        values = sorted(set(col))
        sets[decl.target] = frozenset(values)
        funcs[decl.surjection].update(zip(ks, col))
        funcs[decl.injection].update(zip(values, values))

    return KeyDiagram(sets=sets, funcs=funcs)


def derive_mediating_aspect(
    spec: Specification,
    x: str,
    cone: tuple[Path, ...],
    decl: ProductDecl | PullbackDecl,
    aspect_id: str,
    bound: int = DEFAULT_BOUND,
) -> tuple[Specification, Aspect, tuple[Fact, ...]]:
    """Add the mediating aspect from ``x`` into a product or pullback target.

    ``cone`` gives one path from ``x`` to each factor (for a pullback: to the
    two legs, in order). Returns the extended specification, the new aspect,
    and one new fact per factor stating cone path = mediator;projection. For a
    pullback the cone must provably commute with the cospan; otherwise the
    call is rejected naming the two paths that fail.
    """
    from .entail import ENTAILED, entails

    g = spec.graph
    parts = legs(decl)
    if len(cone) != len(parts):
        raise SketchError(f"cone has {len(cone)} paths for {len(parts)} factors")
    for p, (tid, _) in zip(cone, parts):
        try:
            end = path_target(g, p)
        except OlogError as exc:
            raise SketchError(str(exc)) from None
        if p.source != x or end != tid:
            raise SketchError(f"cone path {format_path(p)} must run {x} -> {tid}")
    if isinstance(decl, PullbackDecl):
        # Each cone path ends at its leg's type, where its cospan path must start.
        lhs, rhs = (Path(x, p.edges + compose_paths(g, identity_path(t), c).edges)
                    for p, c, (t, _) in zip(cone, decl.cospan, parts))
        if entails(spec, Fact(lhs, rhs), bound) != ENTAILED:
            raise SketchError(
                f"cone does not commute with the cospan: "
                f"{format_path(lhs)} = {format_path(rhs)} is not derivable"
            )
    errs = id_errors("aspect", aspect_id, g.type_by_id.keys() | g.aspect_by_id.keys())
    if errs:
        raise SketchError(errs[0])

    mediator = Aspect(id=aspect_id, src=x, tgt=decl.target, label="")
    new_graph = Graph(g.types, g.aspects + (mediator,))
    new_facts = []
    for p, (_, proj) in zip(cone, parts):
        new_facts.append(Fact(p, Path(x, (aspect_id, proj))))
    new_spec = Specification(
        graph=new_graph,
        facts=spec.facts + tuple(new_facts),
        sketch=spec.sketch,
        name=spec.name,
    )
    return new_spec, mediator, tuple(new_facts)


def populate_mediator(
    d: KeyDiagram, aspect_id: str, x: str, cone: tuple[Path, ...]
) -> KeyDiagram:
    """Instance semantics of a mediating aspect: each key maps to the tuple of
    its cone evaluations (matching the canonical synthesized target keys)."""
    funcs = {k: dict(v) for k, v in d.funcs.items()}
    xs = d.keys(x)
    columns = [eval_column(d, p, xs) for p in cone]
    funcs[aspect_id] = dict(zip(xs, map(encode_tuple, _rows(columns, len(xs)))))
    return KeyDiagram(sets=dict(d.sets), funcs=funcs)
