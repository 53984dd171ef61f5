"""Information flow along graph morphisms.

A graph morphism translates one olog language into another: each type goes to
a type, each aspect to a path (possibly an identity path, which collapses the
aspect). Facts move forward by translating both sides (direct flow); facts
move backward by asking whether the translation is entailed on the far side
(inverse flow, bounded like everything in the entailment engine). Instance
data moves the other way: a key diagram over the target graph pulls back to
one over the source.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from .core import (
    Fact,
    Graph,
    Path,
    Specification,
    _walk,
    fact_errors,
    format_fact,
    path_universe,
    record,
)
from .entail import (
    DEFAULT_BOUND,
    ClassTable,
    _check_bound,
    _pairs_within,
    check_fits,
    class_table,
)
from .errors import GraphMismatchError, LotError, MorphismError

# Only ``pullback_instances`` reads instance data; it imports ``instances``
# itself, so moving facts loads no data code.
if TYPE_CHECKING:
    from .instances import KeyDiagram


@record
class GraphMorphism:
    """Total translation of one graph into another.

    ``type_map`` sends type ids to type ids; ``aspect_map`` sends each aspect
    id to a path in the target graph whose endpoints match the mapped
    endpoints of the aspect.
    """

    src: Graph
    tgt: Graph
    type_map: Mapping[str, str]
    aspect_map: Mapping[str, Path]


def morphism_errors(h: GraphMorphism) -> list[str]:
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
        end = _walk(h.tgt, img, problems, f"aspect '{a.id}': image ")
        if end is None:
            continue
        want_src = h.type_map.get(a.src)
        want_tgt = h.type_map.get(a.tgt)
        if want_src is not None and img.source != want_src:
            problems.append(
                f"aspect '{a.id}': image starts at '{img.source}', "
                f"expected '{want_src}'"
            )
        if want_tgt is not None and end != want_tgt:
            problems.append(f"aspect '{a.id}': image ends at '{end}', expected '{want_tgt}'")
    return problems


def _mapped(table: Mapping, kind: str, key: str):
    """``table[key]``; a key the morphism leaves unmapped raises
    :class:`MorphismError` in the words of :func:`morphism_errors`."""
    try:
        return table[key]
    except KeyError:
        raise MorphismError(f"{kind} '{key}' is not mapped") from None


def graph_morphism(
    src: Graph, tgt: Graph, type_map: Mapping[str, str], aspect_map: Mapping[str, Path]
) -> GraphMorphism:
    """Build and validate a morphism; raises :class:`MorphismError` if broken."""
    h = GraphMorphism(src=src, tgt=tgt, type_map=dict(type_map), aspect_map=dict(aspect_map))
    problems = morphism_errors(h)
    if problems:
        raise MorphismError("; ".join(problems))
    return h


def identity_morphism(g: Graph) -> GraphMorphism:
    return GraphMorphism(
        src=g,
        tgt=g,
        type_map={t.id: t.id for t in g.types},
        aspect_map={a.id: Path(a.src, (a.id,)) for a in g.aspects},
    )


def compose_morphisms(h1: GraphMorphism, h2: GraphMorphism) -> GraphMorphism:
    """Diagrammatic composite: first h1, then h2."""
    if h1.tgt != h2.src:
        raise GraphMismatchError("morphisms do not compose: middle graphs differ")
    return GraphMorphism(
        src=h1.src,
        tgt=h2.tgt,
        type_map={t: _mapped(h2.type_map, "type", v) for t, v in h1.type_map.items()},
        aspect_map={a: translate_path(h2, p) for a, p in h1.aspect_map.items()},
    )


def translate_path(h: GraphMorphism, p: Path) -> Path:
    """Concatenate the images of the path's aspects; identities map to identities."""
    edges: tuple[str, ...] = ()
    for eid in p.edges:
        edges += _mapped(h.aspect_map, "aspect", eid).edges
    return Path(_mapped(h.type_map, "type", p.source), edges)


def translate_fact(h: GraphMorphism, fact: Fact) -> Fact:
    return Fact(translate_path(h, fact.lhs), translate_path(h, fact.rhs))


def dir_flow(h: GraphMorphism, facts) -> tuple[Fact, ...]:
    """Elementwise image of a fact set in the target language."""
    return tuple(sorted({translate_fact(h, f) for f in facts}))


def inv_flow(h: GraphMorphism, target_facts, bound: int = DEFAULT_BOUND) -> tuple[Fact, ...]:
    """Source facts whose translations are entailed by the target fact set.

    Source equations range over paths up to ``bound``. Entailment on the far
    side runs at ``bound`` times the longest aspect image (at least 1), so
    every source path's translation fits it and every equation is decided.
    """
    far = bound * max(1, max(map(len, h.aspect_map.values()), default=0))
    target_spec = Specification(graph=h.tgt, facts=tuple(target_facts))
    return _flow_back(h, class_table(target_spec, far), bound)


def _flow_back(h: GraphMorphism, table: ClassTable, bound: int) -> tuple[Fact, ...]:
    """Source equations up to ``bound`` whose translations ``table`` identifies.

    Source paths are grouped by the state of their translation. The bound of
    ``table`` must fit the translation of every source path up to ``bound``.
    """
    u = path_universe(h.src, _check_bound(bound))
    images: list[int] = []  # each path's image state steps its parent's
    for p, q in zip(u.paths, u.parent):
        try:
            if q < 0:
                s = table.start[h.type_map[p.source]]
            else:
                s = table.walk(images[q], h.aspect_map[p.edges[-1]].edges)
        except KeyError:  # an image off the target graph: fail as its state does
            s = table.state(translate_path(h, p))
        images.append(s)
    keys = [(p.source, end, s) for p, end, s in zip(u.paths, u.end, images)]
    return _pairs_within(u, keys, bound)


def pullback_instances(h: GraphMorphism, d2: KeyDiagram) -> KeyDiagram:
    """Reinterpret target instance data over the source language.

    Each source type borrows the key set of its image; each source aspect
    becomes the composite function along its image path.
    """
    from .instances import KeyDiagram, eval_column

    sets = {t.id: d2.sets.get(_mapped(h.type_map, "type", t.id), frozenset()) for t in h.src.types}
    funcs = {}
    for a in h.src.aspects:
        keys = d2.keys(h.type_map[a.src])
        img = _mapped(h.aspect_map, "aspect", a.id)
        funcs[a.id] = dict(zip(keys, eval_column(d2, img, keys)))
    return KeyDiagram(sets=sets, funcs=funcs)


def is_spec_morphism(
    h: GraphMorphism,
    s1: Specification,
    s2: Specification,
    bound: int = DEFAULT_BOUND,
) -> tuple[bool, tuple[Fact, ...]]:
    """Does ``h`` preserve entailment from ``s1`` into ``s2``?

    It suffices to check the declared facts: a derivation of any entailed fact
    translates rule for rule. Returns (verdict, offending declared facts).
    """
    if h.src != s1.graph or h.tgt != s2.graph:
        raise GraphMismatchError("morphism endpoints do not match the specifications")
    offenders = _unpreserved(h, s1, class_table(s2, bound))
    return (not offenders, offenders)


def _unpreserved(h: GraphMorphism, s1: Specification, table: ClassTable) -> tuple[Fact, ...]:
    """Declared facts of ``s1`` whose translations along ``h`` ``table`` does not identify.

    A translation with a side longer than the bound of ``table`` raises
    :class:`BoundExceededError`.
    """
    offenders = []
    for fact in s1.facts:
        img = translate_fact(h, fact)
        check_fits(img, table.bound, "translated")
        if not table.same(img.lhs, img.rhs):
            offenders.append(fact)
    return tuple(offenders)


# ---------------------------------------------------------------------------
# Lattice-of-theories moves


def lot_contract(s: Specification, facts) -> Specification:
    """Delete declared facts, moving to a more general specification."""
    facts = tuple(facts)
    declared = set(s.facts)
    missing = [f for f in facts if f not in declared]
    if missing:
        raise LotError(
            f"cannot contract undeclared fact {format_fact(missing[0])}"
        )
    dropped = set(facts)
    keep = tuple(f for f in s.facts if f not in dropped)
    return Specification(graph=s.graph, facts=keep, sketch=s.sketch, name=s.name)


def lot_expand(s: Specification, facts) -> Specification:
    """Add facts, moving to a more specialized specification."""
    facts = tuple(facts)
    for f in facts:
        errs = fact_errors(s.graph, f)
        if errs:
            raise LotError(f"cannot expand with ill-formed fact: {errs[0]}")
    return Specification(
        graph=s.graph, facts=s.facts + facts, sketch=s.sketch, name=s.name
    )


def lot_revise(s: Specification, delete, add) -> Specification:
    """Contraction followed by expansion."""
    return lot_expand(lot_contract(s, delete), add)


def lot_analogy(h: GraphMorphism, s: Specification, name: str | None = None) -> Specification:
    """Systematic renaming: move the fact set along a morphism to a new language.

    Sketch annotations do not transport and are dropped.
    """
    if h.src != s.graph:
        raise GraphMismatchError("analogy morphism must start at the specification's graph")
    return Specification(
        graph=h.tgt,
        facts=dir_flow(h, s.facts),
        name=name if name is not None else s.name,
    )
