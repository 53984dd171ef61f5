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

from dataclasses import dataclass
from itertools import product as iter_product

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
    legs,
    path_errors,
    path_target,
    synthesized_aspects,
)
from .entail import ENTAILED, entails
from .errors import SketchError, SynthesisError
from .instances import KeyDiagram, eval_path


def encode_tuple(keys) -> str:
    return "(" + ",".join(keys) + ")"


def encode_tagged(aspect_id: str, key: str) -> str:
    return f"in{aspect_id}:{key}"


# ---------------------------------------------------------------------------
# Semantic checks


@dataclass(frozen=True)
class CheckResult:
    kind: str
    subject: str
    passed: bool
    witness: str = ""

    @property
    def verdict(self) -> str:
        return "check-passed" if self.passed else "check-failed"


def _tupling(d: KeyDiagram, target: str, projections) -> dict[str, tuple[str, ...]]:
    return {
        x: tuple(d.funcs[aid][x] for aid in projections)
        for x in sorted(d.sets.get(target, frozenset()))
    }


def _bijection_onto(
    kind: str, target: str, got: dict[str, tuple[str, ...]], want: set
) -> CheckResult:
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


def _limit_tuples(d: KeyDiagram, decl: ProductDecl | PullbackDecl) -> list[tuple[str, ...]]:
    """The tuples of leg keys that form the limit of ``decl``, sorted.

    A product takes every tuple of factor keys; with zero factors that is
    one empty tuple. A pullback takes the pairs (b, c) that agree along the
    cospan, found by a hash join on the cospan value: each key of either leg
    is evaluated once, so the cost is |B| + |C| + pairs, not |B|·|C|. With
    an empty leg nothing is evaluated.
    """
    key_sets = [sorted(d.sets.get(t, frozenset())) for t, _ in legs(decl)]
    if isinstance(decl, ProductDecl):
        return list(iter_product(*key_sets))
    bs, cs = key_sets
    if not bs or not cs:
        return []
    pf, pg = decl.cospan
    bucket: dict[str, list[str]] = {}
    for c in cs:
        bucket.setdefault(eval_path(d, pg, c), []).append(c)
    return [(b, c) for b in bs for c in bucket.get(eval_path(d, pf, b), ())]


def check_limit(d: KeyDiagram, decl: ProductDecl | PullbackDecl) -> CheckResult:
    """Tupling along the legs must biject onto the limit's tuples.

    A singleton's limit is one empty tuple, so its target must have exactly
    one key.
    """
    want = set(_limit_tuples(d, decl))
    got = _tupling(d, decl.target, [aid for _, aid in legs(decl)])
    return _bijection_onto(decl.kind, decl.target, got, want)


check_product = check_pullback = check_limit


def check_coproduct(d: KeyDiagram, decl: CoproductDecl) -> CheckResult:
    """Inclusions must be injective with pairwise disjoint images covering the target."""
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


def _pushout_classes(d: KeyDiagram, decl: PushoutDecl) -> dict[str, list[str]]:
    """Quotient the tagged union of the legs by the span identifications."""
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


def check_pushout(d: KeyDiagram, decl: PushoutDecl) -> CheckResult:
    """The map from the span quotient to the target must be a bijection."""
    tagged_val = {
        encode_tagged(aid, k): d.funcs[aid][k]
        for tid, aid in legs(decl)
        for k in d.sets.get(tid, frozenset())
    }

    classes = _pushout_classes(d, decl)
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


def check_injective(d: KeyDiagram, graph: Graph, aspect_id: str) -> CheckResult:
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
    for k in sorted(d.sets.get(decl.of.source, frozenset())):
        via = d.funcs[decl.injection][d.funcs[decl.surjection][k]]
        direct = eval_path(d, decl.of, k)
        if via != direct:
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
            for k in sorted(d.sets.get(tid, frozenset())):
                key = encode_tagged(aid, k)
                keys.append(key)
                funcs[aid][k] = key
        sets[decl.target] = frozenset(keys)
    elif isinstance(decl, PushoutDecl):
        classes = _pushout_classes(d, decl)
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
    g = spec.graph
    parts = legs(decl)
    if len(cone) != len(parts):
        raise SketchError(f"cone has {len(cone)} paths for {len(parts)} factors")
    for p, (tid, _) in zip(cone, parts):
        errs = path_errors(g, p)
        if errs:
            raise SketchError(errs[0])
        if p.source != x or path_target(g, p) != tid:
            raise SketchError(
                f"cone path {format_path(p)} must run {x} -> {tid}"
            )
    if isinstance(decl, PullbackDecl):
        pf, pg = decl.cospan
        lhs = compose_paths(g, cone[0], pf)
        rhs = compose_paths(g, cone[1], pg)
        if entails(spec, Fact(lhs, rhs), bound) != ENTAILED:
            raise SketchError(
                f"cone does not commute with the cospan: "
                f"{format_path(lhs)} = {format_path(rhs)} is not derivable"
            )
    if aspect_id in g.aspect_by_id or aspect_id in g.type_by_id:
        raise SketchError(f"id '{aspect_id}' is already taken")

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
    funcs[aspect_id] = {
        k: encode_tuple(tuple(eval_path(d, p, k) for p in cone))
        for k in sorted(d.sets.get(x, frozenset()))
    }
    return KeyDiagram(sets=dict(d.sets), funcs=funcs)
