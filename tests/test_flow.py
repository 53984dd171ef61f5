from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olog.core import (
    Aspect,
    Fact,
    Graph,
    Path,
    Specification,
    TypeNode,
    identity_path,
    path_target,
)
from olog.entail import consequence, spec_leq
from olog.errors import GraphMismatchError, LotError, MorphismError, OlogError
from olog.flow import (
    GraphMorphism,
    compose_morphisms,
    dir_flow,
    graph_morphism,
    identity_morphism,
    inv_flow,
    is_spec_morphism,
    lot_analogy,
    lot_contract,
    lot_expand,
    lot_revise,
    pullback_instances,
    translate_fact,
    translate_path,
)
from olog.instances import KeyDiagram, intent, satisfies_fact

from . import strategies as sts
from .conftest import FIXTURES, load_olog
from .oracles import far_bound


@pytest.fixture(scope="module")
def renaming(family_spec):
    """Bijective renaming of the family graph onto a primed copy."""
    from olog.core import Aspect, TypeNode

    g = family_spec.graph
    types = tuple(TypeNode(t.id + "_r", t.label) for t in g.types)
    aspects = tuple(
        Aspect(a.id + "_r", a.src + "_r", a.tgt + "_r", a.label) for a in g.aspects
    )
    tgt = Graph(types=types, aspects=aspects)
    return graph_morphism(
        g,
        tgt,
        {t.id: t.id + "_r" for t in g.types},
        {a.id: Path(a.src + "_r", (a.id + "_r",)) for a in g.aspects},
    )


def test_translate_path_identity_morphism(family_spec):
    h = identity_morphism(family_spec.graph)
    p = Path("person", ("parents", "w"))
    assert translate_path(h, p) == p
    assert translate_path(h, identity_path("person")) == identity_path("person")


def test_translate_path_length_additivity(family_spec, employee_spec):
    h = graph_morphism(
        family_spec.graph,
        employee_spec.graph,
        {"person": "employee", "pair": "employee", "woman": "department"},
        {
            "parents": Path("employee", ("manager", "manager")),
            "w": Path("employee", ("manager", "works_in")),
            "mother": Path("employee", ("works_in",)),
        },
    )
    p = Path("person", ("parents", "w"))
    img = translate_path(h, p)
    assert len(img) == 4
    assert img == Path("employee", ("manager", "manager", "manager", "works_in"))


def test_translate_w_link_fact():
    community = load_olog("community.olog")
    portal = load_olog("portal.olog")
    from olog import dsl

    text = (FIXTURES / "community_to_portal.omap").read_text()
    h, _ = dsl.parse_morphism(text, community, portal)
    fact = dsl.parse_fact_text("going;is_go = proc", community.graph)
    assert translate_fact(h, fact) == dsl.parse_fact_text(
        "going;is_go = proc", portal.graph
    )


def test_dir_flow_basics(family_spec, renaming):
    assert dir_flow(renaming, ()) == ()
    got = dir_flow(renaming, family_spec.facts)
    assert got == (
        Fact(
            Path("person_r", ("parents_r", "w_r")),
            Path("person_r", ("mother_r",)),
        ),
    )


def test_inv_flow_identity_is_bounded_consequence(family_spec):
    h = identity_morphism(family_spec.graph)
    got = set(inv_flow(h, family_spec.facts, 2))
    assert got == set(consequence(family_spec, 2))


def test_inv_flow_empty_target_gives_tautologies(family_spec, renaming):
    got = inv_flow(renaming, (), 2)
    assert got and all(f.lhs == f.rhs for f in got)


def test_inv_flow_axiom(family_spec, renaming):
    # target entails the translated equation, so the source equation flows back
    target_facts = dir_flow(renaming, family_spec.facts)
    got = set(inv_flow(renaming, target_facts, 2))
    assert family_spec.facts[0] in got


def test_inv_flow_collapsing_morphism_learns_equation(family_spec):
    # both parallel aspects map to the same image, so their equation holds back home
    g = Graph(
        types=family_spec.graph.types,
        aspects=family_spec.graph.aspects,
    )
    collapse = graph_morphism(
        g,
        g,
        {t.id: t.id for t in g.types},
        {
            "parents": Path("person", ("parents",)),
            "w": Path("pair", ("w",)),
            "mother": Path("person", ("parents", "w")),
        },
    )
    got = set(inv_flow(collapse, (), 2))
    assert Fact(Path("person", ("mother",)), Path("person", ("parents", "w"))) in got


def test_pullback_instances_identity(family_spec, family_data):
    h = identity_morphism(family_spec.graph)
    d = pullback_instances(h, family_data)
    assert d.sets == dict(family_data.sets)
    assert d.funcs == {a: dict(f) for a, f in family_data.funcs.items()}


def test_pullback_instances_identity_image_aspect(family_spec, family_data):
    from olog.core import Aspect, TypeNode

    src = Graph(
        types=(TypeNode("X", "a probe"), TypeNode("Y", "a probe result")),
        aspects=(Aspect("a", "X", "Y", "observes"),),
    )
    # a collapses: both endpoints land on person and a becomes the identity path
    h = graph_morphism(
        src,
        family_spec.graph,
        {"X": "person", "Y": "person"},
        {"a": identity_path("person")},
    )
    d2 = pullback_instances(h, family_data)
    assert d2.funcs["a"] == {k: k for k in family_data.sets["person"]}


def test_pullback_instances_renaming_is_relabeling(renaming, family_data, family_spec):
    # move the data forward by hand, then pull it back and compare
    fwd_sets = {tid + "_r": family_data.sets[tid] for tid in family_data.sets}
    fwd_funcs = {aid + "_r": dict(fn) for aid, fn in family_data.funcs.items()}
    from olog.instances import KeyDiagram

    d2 = KeyDiagram(sets=fwd_sets, funcs=fwd_funcs)
    back = pullback_instances(renaming, d2)
    assert back.sets == dict(family_data.sets)
    assert back.funcs == {a: dict(f) for a, f in family_data.funcs.items()}


def test_is_spec_morphism_identity(employee_spec):
    ok, offenders = is_spec_morphism(
        identity_morphism(employee_spec.graph), employee_spec, employee_spec, 3
    )
    assert ok and not offenders


def test_is_spec_morphism_detects_dropped_fact(employee_spec):
    weaker = Specification(graph=employee_spec.graph, facts=employee_spec.facts[:1])
    ok, offenders = is_spec_morphism(
        identity_morphism(employee_spec.graph), employee_spec, weaker, 3
    )
    assert not ok
    assert set(offenders) == set(employee_spec.facts[1:])


def test_mismatched_endpoints_are_refused(family_spec, employee_spec):
    fam, emp = identity_morphism(family_spec.graph), identity_morphism(employee_spec.graph)
    with pytest.raises(GraphMismatchError, match="^morphisms do not compose: middle graphs differ$"):
        compose_morphisms(fam, emp)
    with pytest.raises(GraphMismatchError,
                       match="^morphism endpoints do not match the specifications$"):
        is_spec_morphism(fam, family_spec, employee_spec, 3)


def test_w_links_are_spec_morphisms():
    from olog import dsl

    pairs = [
        ("community.olog", "portal.olog", "community_to_portal.omap"),
        ("reference.olog", "portal.olog", "reference_to_portal.omap"),
        ("reference.olog", "portal2.olog", "reference_to_portal2.omap"),
        ("community2.olog", "portal2.olog", "community2_to_portal2.omap"),
    ]
    for src_name, tgt_name, map_name in pairs:
        src, tgt = load_olog(src_name), load_olog(tgt_name)
        h, diags = dsl.parse_morphism((FIXTURES / map_name).read_text(), src, tgt)
        assert h is not None
        ok, offenders = is_spec_morphism(h, src, tgt, 6)
        assert ok, (map_name, offenders)


def test_morphism_validation_errors(family_spec):
    g = family_spec.graph
    with pytest.raises(MorphismError):
        graph_morphism(g, g, {"person": "person"}, {})
    with pytest.raises(MorphismError):
        graph_morphism(
            g,
            g,
            {t.id: t.id for t in g.types},
            {a.id: Path("woman", ()) for a in g.aspects},
        )



def test_morphism_validation_rejects_stray_map_entries(family_spec):
    """An entry for a type or aspect the source lacks is an error, not ignored."""
    g = family_spec.graph
    types = {t.id: t.id for t in g.types}
    aspects = {a.id: Path(a.src, (a.id,)) for a in g.aspects}
    with pytest.raises(MorphismError, match="unknown source type 'ghost'"):
        graph_morphism(g, g, {**types, "ghost": "nowhere"}, aspects)
    with pytest.raises(MorphismError, match="unknown source aspect 'ghost'"):
        graph_morphism(g, g, types, {**aspects, "ghost": Path("person", ())})


# --- functoriality -----------------------------------------------------------


@given(data=st.data(), h=sts.morphisms())
@settings(max_examples=40, deadline=None)
def test_translate_respects_composition(data, h):
    p = data.draw(sts.paths_in(h.src, 2))
    q = data.draw(sts.paths_in(h.src, 2, source=path_target(h.src, p)))
    from olog.core import compose_paths

    lhs = translate_path(h, compose_paths(h.src, p, q))
    rhs = compose_paths(h.tgt, translate_path(h, p), translate_path(h, q))
    assert lhs == rhs
    t = data.draw(st.sampled_from([t.id for t in h.src.types]))
    assert translate_path(h, identity_path(t)) == identity_path(h.type_map[t])


@given(data=st.data(), h=sts.morphisms())
@settings(max_examples=40, deadline=None)
def test_compose_morphisms_associates_with_identity(data, h):
    left = compose_morphisms(identity_morphism(h.src), h)
    right = compose_morphisms(h, identity_morphism(h.tgt))
    assert dict(left.type_map) == dict(h.type_map) == dict(right.type_map)
    assert dict(left.aspect_map) == dict(h.aspect_map) == dict(right.aspect_map)


# --- satisfaction invariance and adjointness ----------------------------------


@given(data=st.data(), h=sts.morphisms())
@settings(max_examples=60, deadline=None)
def test_satisfaction_invariant_under_flow(data, h):
    eps = data.draw(sts.parallel_facts(h.src, max_len=2))
    d2 = data.draw(sts.key_diagrams_on(h.tgt))
    pulled = pullback_instances(h, d2)
    assert (
        satisfies_fact(pulled, eps).satisfied
        == satisfies_fact(d2, translate_fact(h, eps)).satisfied
    )


@given(data=st.data(), h=sts.morphisms())
@settings(max_examples=40, deadline=None)
def test_dir_inv_adjointness(data, h):
    # inverse flow decides on the far side at the derived bound, so the
    # direct-flow side is compared there too
    src_bound, tgt_bound = 2, far_bound(h, 2)
    e1 = tuple(
        data.draw(sts.parallel_facts(h.src, max_len=2)) for _ in range(data.draw(st.integers(0, 2)))
    )
    e2 = tuple(
        data.draw(sts.parallel_facts(h.tgt, max_len=2)) for _ in range(data.draw(st.integers(0, 2)))
    )
    s2 = Specification(graph=h.tgt, facts=e2)
    left = spec_leq(s2, Specification(graph=h.tgt, facts=dir_flow(h, e1)), tgt_bound)
    inv = inv_flow(h, e2, src_bound)
    right = spec_leq(
        Specification(graph=h.src, facts=inv),
        Specification(graph=h.src, facts=e1),
        src_bound,
    )
    assert left == right


# --- lattice-of-theories moves -------------------------------------------------


def test_lot_contract_expand_roundtrip(employee_spec):
    fact = employee_spec.facts[0]
    smaller = lot_contract(employee_spec, [fact])
    assert fact not in smaller.facts
    back = lot_expand(smaller, [fact])
    assert spec_leq(back, employee_spec, 3) and spec_leq(employee_spec, back, 3)


def test_lot_expand_specializes(employee_spec):
    extra = Fact(
        Path("employee", ("manager", "manager")), Path("employee", ("manager",))
    )
    bigger = lot_expand(employee_spec, [extra])
    assert spec_leq(bigger, employee_spec, 3)
    assert not spec_leq(employee_spec, bigger, 3)


def test_lot_revise_and_commutation(employee_spec):
    f1, f2 = employee_spec.facts
    revised = lot_revise(employee_spec, [f1], [f1])
    assert set(revised.facts) == set(employee_spec.facts)
    extra = Fact(Path("employee", ("manager", "manager")), Path("employee", ("manager",)))
    one = lot_expand(lot_contract(employee_spec, [f2]), [extra])
    two = lot_contract(lot_expand(employee_spec, [extra]), [f2])
    assert one == two


def test_lot_move_errors(employee_spec):
    ghost = Fact(Path("employee", ("manager",)), Path("employee", ("manager", "manager")))
    with pytest.raises(LotError):
        lot_contract(employee_spec, [ghost])
    bad = Fact(Path("employee", ("manager",)), Path("employee", ("works_in",)))
    with pytest.raises(LotError):
        lot_expand(employee_spec, [bad])


def test_lot_analogy_renaming(family_spec, renaming):
    moved = lot_analogy(renaming, family_spec)
    assert moved.graph == renaming.tgt
    assert moved.facts == dir_flow(renaming, family_spec.facts)
    back_home = lot_analogy(identity_morphism(family_spec.graph), family_spec)
    assert back_home.facts == family_spec.facts
    with pytest.raises(GraphMismatchError):
        lot_analogy(renaming, Specification(graph=renaming.tgt))


def test_dir_flow_keeps_identity_collapsed_facts(family_spec):
    # a fact whose two sides both collapse to identity paths stays in the
    # image as a tautology rather than being dropped
    g = family_spec.graph
    collapse = graph_morphism(
        g,
        g,
        {t.id: "person" for t in g.types},
        {a.id: identity_path("person") for a in g.aspects},
    )
    got = dir_flow(collapse, family_spec.facts)
    assert got == (Fact(identity_path("person"), identity_path("person")),)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_inv_flow_holds_on_pulled_back_models(data):
    # d2 models the target facts by construction, so every fact that flows
    # back must hold on d2 read over the source language.
    h = data.draw(sts.morphisms())
    bound = data.draw(st.integers(1, 2))
    d2 = data.draw(sts.key_diagrams_on(h.tgt, max_keys=3))
    holds = intent(d2, h.tgt, far_bound(h, bound))
    proper = [f for f in holds if f.lhs != f.rhs] or holds
    facts = data.draw(st.lists(st.sampled_from(proper), max_size=4))
    got = inv_flow(h, facts, bound)
    assert set(got) <= set(intent(pullback_instances(h, d2), h.src, bound))


def test_inv_flow_decides_paths_whose_images_are_longer():
    # f goes to g;g and g;g = id(x), so f;f = id(a) although f;f translates to
    # a path of length 4; the far side runs at bound 2 x 2.
    src = Graph((TypeNode("a", "an a"),), (Aspect("f", "a", "a", "steps to"),))
    tgt = Graph((TypeNode("x", "an x"),), (Aspect("g", "x", "x", "steps to"),))
    h = graph_morphism(src, tgt, {"a": "x"}, {"f": Path("x", ("g", "g"))})
    got = inv_flow(h, [Fact(Path("x", ("g", "g")), Path("x"))], 2)
    assert len(got) == 9
    ff = Path("a", ("f", "f"))
    assert Fact(ff, Path("a")) in got and Fact(ff, ff) in got


def test_pullback_instances_reads_a_missing_key_set_as_empty():
    g = Graph((TypeNode("a", "an a"), TypeNode("b", "a b")), (Aspect("f", "a", "b", "has"),))
    d = KeyDiagram(sets={"a": frozenset()}, funcs={"f": {}})
    got = pullback_instances(identity_morphism(g), d)
    assert got.sets == {"a": frozenset(), "b": frozenset()} and got.funcs == {"f": {}}


def test_inv_flow_refuses_an_image_off_the_target_graph():
    # An unvalidated morphism whose aspect image names no target aspect: the
    # path's state is asked of the table, which refuses it as state does.
    g = Graph(types=(TypeNode("n", "a node"),), aspects=(Aspect("a", "n", "n", "steps to"),))
    h = GraphMorphism(src=g, tgt=g, type_map={"n": "n"}, aspect_map={"a": Path("n", ("nope",))})
    with pytest.raises(OlogError, match="^unknown aspect 'nope'$") as exc:
        inv_flow(h, (), 2)
    assert type(exc.value) is OlogError


# --- a morphism built without graph_morphism may leave ids unmapped -----------

LOOP = Graph((TypeNode("a", "an a"),), (Aspect("f", "a", "a", "is"),))
INCOMPLETE = {
    "type 'a' is not mapped": GraphMorphism(LOOP, LOOP, {}, {"f": Path("a", ("f",))}),
    "aspect 'f' is not mapped": GraphMorphism(LOOP, LOOP, {"a": "a"}, {}),
}


@pytest.mark.parametrize("message", sorted(INCOMPLETE))
def test_an_unmapped_id_raises_a_morphism_error_not_a_key_error(message):
    h = INCOMPLETE[message]
    spec = Specification(LOOP, (Fact(Path("a", ("f", "f")), Path("a", ("f",))),))
    d = KeyDiagram(sets={"a": frozenset({"x"})}, funcs={"f": {"x": "x"}})
    calls = [
        lambda: translate_fact(h, spec.facts[0]),
        lambda: dir_flow(h, spec.facts),
        lambda: inv_flow(h, spec.facts, 2),
        lambda: is_spec_morphism(h, spec, spec, 2),
        lambda: lot_analogy(h, spec),
        lambda: pullback_instances(h, d),
        lambda: compose_morphisms(identity_morphism(LOOP), h),
    ]
    for call in calls:
        with pytest.raises(MorphismError, match=f"^{message}$"):
            call()
