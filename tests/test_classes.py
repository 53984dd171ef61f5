"""The library answers from classes: each function against its candidate-pair loop.

``consequence``, ``intent``, ``inv_flow`` and ``system_consequence`` group
paths into classes and emit the pairs within each group. The oracles in
``tests/oracles.py`` test every candidate pair instead. Results must be the
same tuple, order included, and an error must be the same error. Each must
also give what it gives with the emitter that sorted its groups,
``pairs_within_by_sorting``, in place of the one that walks path order.

``check_pullback`` and pullback synthesis join the legs on the cospan value;
their oracles test every pair of leg keys. Results must be equal and an
error must be of the same type (which bad key is met first may differ).
Products, singletons and pullbacks share one limit check and one synthesis
branch; on random worlds they must give what the code they replaced gave.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olog import dsl, sketch
from olog.core import Aspect, Fact, Graph, Path, Specification, TypeNode, path_target
from olog.entail import consequence
from olog.errors import OlogError
from olog.flow import GraphMorphism, dir_flow, inv_flow
from olog.instances import KeyDiagram, intent, satisfies_fact
from olog.sketch import (
    PullbackDecl,
    check_decl,
    check_pullback,
    legs,
    synthesize,
)
from olog.system import InformationSystem, Shape, system_consequence

from . import strategies as sts
from .conftest import FIXTURES, load_data, load_olog
from .oracles import (
    check_product_by_factors,
    check_pullback_by_pairs,
    consequence_by_pairs,
    intent_by_pairs,
    inv_flow_by_pairs,
    pairs_within_by_sorting,
    synthesize_product_by_factors,
    synthesize_pullback_by_pairs,
    system_consequence_by_pairs,
)
from .worlds import random_world

SETTINGS = settings(max_examples=150, deadline=None)


def outcome(fn, *args, **kwargs):
    """The result of a call, or the type and message of what it raised."""
    try:
        return ("ok", fn(*args, **kwargs))
    except Exception as exc:  # compared, not handled
        return ("raised", type(exc), str(exc))


def _sorting_emitter(u, keys, bound):
    return pairs_within_by_sorting((p, k) for p, k in zip(u.paths, keys) if k is not None)


def by_sorting(fn, *args, **kwargs):
    """The outcome of ``fn`` with the emitter that sorted its groups."""
    with mock.patch("olog.entail._pairs_within", _sorting_emitter), \
            mock.patch("olog.flow._pairs_within", _sorting_emitter):
        return outcome(fn, *args, **kwargs)


# --- consequence --------------------------------------------------------------


@SETTINGS
@given(st.data())
def test_consequence_matches_pair_loop(data):
    g = data.draw(sts.graphs())
    spec = data.draw(sts.specs_on(g, max_facts=4, max_len=3))
    bound = data.draw(st.integers(1, 3))
    got = outcome(consequence, spec, bound)
    assert got == outcome(consequence_by_pairs, spec, bound)
    assert got == by_sorting(consequence, spec, bound)


def test_consequence_pairs_only_parallel_paths():
    # Saturation refuses a declared fact whose sides are not parallel, so no
    # class can pair non-parallel paths; both answers raise the same error.
    g = Graph(types=(TypeNode("a", "an a"), TypeNode("b", "a b")))
    spec = Specification(graph=g, facts=(Fact(Path("a"), Path("b")),))
    got = outcome(consequence, spec, 2)
    assert got == outcome(consequence_by_pairs, spec, 2)
    assert got[:2] == ("raised", OlogError)
    assert "id(a) = id(b)" in got[2]


# --- intent -------------------------------------------------------------------


@SETTINGS
@given(st.data())
def test_intent_matches_pair_loop(data):
    g = data.draw(sts.graphs())
    d = data.draw(sts.key_diagrams_on(g, max_keys=3))
    bound = data.draw(st.integers(1, 3))
    got = outcome(intent, d, g, bound)
    assert got == outcome(intent_by_pairs, d, g, bound)
    assert got == by_sorting(intent, d, g, bound)


def test_intent_with_empty_key_sets_matches_pair_loop():
    g = Graph(
        types=(TypeNode("a", "an a"), TypeNode("b", "a b")),
        aspects=(Aspect("f", "a", "b", "has"), Aspect("g", "a", "b", "has"),
                 Aspect("s", "b", "b", "has")),
    )
    d = KeyDiagram(
        sets={"a": frozenset(), "b": frozenset({"b0", "b1"})},
        funcs={"f": {}, "g": {}, "s": {"b0": "b1", "b1": "b1"}},
    )
    got = intent(d, g, 3)
    assert got == intent_by_pairs(d, g, 3)
    # every parallel pair out of the empty type holds vacuously
    assert Fact(Path("a", ("f",)), Path("a", ("g",))) in got


@pytest.mark.parametrize("bound", [0, -1])
def test_intent_rejects_the_same_bounds(family_spec, family_data, bound):
    g = family_spec.graph
    assert outcome(intent, family_data, g, bound) == outcome(
        intent_by_pairs, family_data, g, bound
    )
    assert outcome(intent, family_data, g, bound)[0] == "raised"


# --- inverse flow -------------------------------------------------------------


@SETTINGS
@given(st.data())
def test_inv_flow_matches_pair_loop(data):
    h = data.draw(sts.morphisms(max_image_len=2))
    target = data.draw(sts.specs_on(h.tgt, max_facts=3, max_len=2))
    bound = data.draw(st.integers(1, 3))
    tb = data.draw(st.one_of(st.none(), st.integers(1, 4)))
    got = outcome(inv_flow, h, target.facts, bound, target_bound=tb)
    assert got == outcome(inv_flow_by_pairs, h, target.facts, bound, target_bound=tb)
    assert got == by_sorting(inv_flow, h, target.facts, bound, target_bound=tb)


def _collapse():
    """Two source types onto one: ``f`` goes to the loop ``x``, ``g`` and ``k``
    to the identity, so paths that are not parallel in the source translate
    into one target class."""
    src = Graph(
        types=(TypeNode("A", "an a"), TypeNode("B", "a b")),
        aspects=(Aspect("f", "A", "B", "has"), Aspect("g", "A", "A", "has"),
                 Aspect("k", "A", "A", "has"), Aspect("m", "B", "A", "has")),
    )
    tgt = Graph(types=(TypeNode("X", "an x"),), aspects=(Aspect("x", "X", "X", "has"),))
    return GraphMorphism(
        src=src,
        tgt=tgt,
        type_map={"A": "X", "B": "X"},
        aspect_map={"f": Path("X", ("x",)), "g": Path("X"), "k": Path("X"),
                    "m": Path("X", ("x",))},
    )


@pytest.mark.parametrize("target_bound", [None, 1, 2, 4])
@pytest.mark.parametrize("bound", [1, 2, 3])
def test_inv_flow_non_injective_identity_images_and_short_target_bound(bound, target_bound):
    h = _collapse()
    target_facts = (Fact(Path("X", ("x", "x")), Path("X", ("x",))),)
    got = outcome(inv_flow, h, target_facts, bound, target_bound=target_bound)
    assert got == outcome(inv_flow_by_pairs, h, target_facts, bound, target_bound=target_bound)
    if got[0] == "ok":
        assert all(
            f.lhs.source == f.rhs.source
            and path_target(h.src, f.lhs) == path_target(h.src, f.rhs)
            for f in got[1]
        )


def test_inv_flow_identity_images_give_equations():
    h = _collapse()
    got = inv_flow(h, (), 2)
    assert Fact(Path("A", ("g",)), Path("A")) in got
    assert Fact(Path("A", ("g", "k")), Path("A", ("k",))) in got
    # f and g translate into one class but are not parallel in the source
    assert Fact(Path("A", ("f",)), Path("A", ("g",))) not in got


@pytest.mark.parametrize("bound", [0, -1])
def test_inv_flow_rejects_the_same_bounds(bound):
    h = _collapse()
    assert outcome(inv_flow, h, (), bound, target_bound=2) == outcome(
        inv_flow_by_pairs, h, (), bound, target_bound=2
    )


# --- system consequence -------------------------------------------------------


@st.composite
def two_node_systems(draw):
    """A system ``s -> t`` whose link sends aspects to single aspects, with the
    translated source facts declared on ``t`` so the edge preserves them."""
    h = draw(sts.links())
    s = draw(sts.specs_on(h.src, max_facts=2, max_len=2))
    t = draw(sts.specs_on(h.tgt, max_facts=2, max_len=2))
    t = Specification(graph=h.tgt, facts=t.facts + dir_flow(h, s.facts), name="t")
    return InformationSystem(
        shape=Shape(("s", "t"), (("e", "s", "t"),)),
        specs={"s": Specification(graph=h.src, facts=s.facts, name="s"), "t": t},
        constraints={"e": h},
    )


@settings(max_examples=100, deadline=None)
@given(two_node_systems(), st.integers(2, 3))
def test_system_consequence_matches_pair_loop(sysm, bound):
    got = outcome(system_consequence, sysm, bound)
    assert got == outcome(system_consequence_by_pairs, sysm, bound)
    assert got == by_sorting(system_consequence, sysm, bound)


@pytest.mark.parametrize("name", ["w.osys", "span.osys", "constant.osys", "discrete.osys"])
@pytest.mark.parametrize("bound", [3, 4, 5])
def test_system_consequence_on_fixtures_matches_pair_loop(name, bound):
    sysm, diags = dsl.parse_system(FIXTURES / name, bound=bound)
    assert sysm is not None, [str(d) for d in diags]
    assert system_consequence(sysm, bound) == system_consequence_by_pairs(sysm, bound)


# --- pullbacks ----------------------------------------------------------------

# Cospan shapes: (aspects as (id, src, tgt), leg types, cospan paths).
PULLBACK_SHAPES = {
    "direct": (
        (("f", "B", "D"), ("g", "C", "D")),
        ("B", "C"),
        (Path("B", ("f",)), Path("C", ("g",))),
    ),
    "multi-edge": (
        (("f1", "B", "M"), ("f2", "M", "D"), ("g1", "C", "N"), ("g2", "N", "D")),
        ("B", "C"),
        (Path("B", ("f1", "f2")), Path("C", ("g1", "g2"))),
    ),
    "identity": (
        (("f", "B", "C"),),
        ("B", "C"),
        (Path("B", ("f",)), Path("C")),
    ),
    "diagonal": ((), ("B", "B"), (Path("B"), Path("B"))),
    "kernel pair": (
        (("f", "B", "D"),),
        ("B", "B"),
        (Path("B", ("f",)), Path("B", ("f",))),
    ),
}


def _eval(funcs, path, key):
    for eid in path.edges:
        key = funcs[eid][key]
    return key


@st.composite
def pullback_worlds(draw):
    """A pullback declaration ``T`` over a random cospan, with a diagram whose
    ``T`` rows are the matching pairs with some missing, extra and duplicated,
    and the same diagram with ``T`` empty (rarely populated) for synthesis.

    One world in five has partial aspect functions or values outside the
    next type's keys, so evaluating a leg can fail."""
    shape = draw(st.sampled_from(sorted(PULLBACK_SHAPES)))
    aspects, (tb, tc), cospan = PULLBACK_SHAPES[shape]
    types = sorted({tb, tc} | {t for _, s_, t_ in aspects for t in (s_, t_)})
    sets = {}
    for t in types:
        n = draw(st.integers(0, 3 if t in ("D", "M", "N") else 5))
        sets[t] = [f"{t.lower()}{i}" for i in range(n)]
    broken = draw(st.integers(0, 4)) == 0
    funcs: dict[str, dict[str, str]] = {}
    for aid, src, tgt in aspects:
        funcs[aid] = {}
        for k in sets[src]:
            if broken and draw(st.booleans()):
                if draw(st.booleans()):
                    funcs[aid][k] = "stray"
                continue
            if sets[tgt]:
                funcs[aid][k] = draw(st.sampled_from(sets[tgt]))
    pf, pg = cospan
    pairs = [(b, c) for b in sets[tb] for c in sets[tc]]
    try:
        rows = [(b, c) for b, c in pairs if _eval(funcs, pf, b) == _eval(funcs, pg, c)]
    except KeyError:
        rows = []
    if rows:
        dropped = draw(st.sets(st.sampled_from(range(len(rows))), max_size=2))
        rows = [r for i, r in enumerate(rows) if i not in dropped]
    if pairs:
        rows += draw(st.lists(st.sampled_from(pairs), max_size=2))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    rows = draw(st.permutations(rows))
    keys = [f"t{i}" for i in range(len(rows))]
    funcs["qb"] = {k: b for k, (b, _) in zip(keys, rows)}
    funcs["qc"] = {k: c for k, (_, c) in zip(keys, rows)}
    decl = PullbackDecl("T", (tb, "qb"), (tc, "qc"), cospan)
    frozen = {t: frozenset(ks) for t, ks in sets.items()}
    checked = KeyDiagram(sets={**frozen, "T": frozenset(keys)}, funcs=funcs)
    target = frozenset(keys) if draw(st.integers(0, 9)) == 0 else frozenset()
    empty = KeyDiagram(
        sets={**frozen, "T": target}, funcs={**funcs, "qb": {}, "qc": {}}
    )
    return decl, checked, empty


def typed_outcome(fn, *args):
    """Like :func:`outcome`, but an error is compared by type only."""
    got = outcome(fn, *args)
    return got[:2] if got[0] == "raised" else got


@SETTINGS
@given(pullback_worlds())
def test_check_pullback_matches_pair_loop(world):
    decl, d, _ = world
    assert typed_outcome(check_pullback, d, decl) == typed_outcome(
        check_pullback_by_pairs, d, decl
    )


@SETTINGS
@given(pullback_worlds())
def test_synthesize_pullback_matches_pair_loop(world):
    decl, _, d = world
    got = typed_outcome(synthesize, decl, d)
    assert got == typed_outcome(synthesize_pullback_by_pairs, decl, d)
    if got[0] == "ok":
        want = synthesize_pullback_by_pairs(decl, d)
        for aid in ("qb", "qc"):
            assert list(got[1].funcs[aid].items()) == list(want.funcs[aid].items())
        assert check_pullback(got[1], decl).passed


def _count_evaluations(fn, *args) -> int:
    calls = []

    def counting(d, path, keys):
        keys = list(keys)
        calls.extend(keys)
        return real(d, path, keys)

    real = sketch.eval_column
    with mock.patch.object(sketch, "eval_column", counting):
        outcome(fn, *args)
    return len(calls)


@SETTINGS
@given(pullback_worlds())
def test_pullback_evaluates_each_leg_key_at_most_once(world):
    decl, checked, empty = world
    n_b, n_c = (len(checked.sets[t]) for t in (decl.leg_b[0], decl.leg_c[0]))
    budget = n_b + n_c if n_b and n_c else 0
    assert _count_evaluations(check_pullback, checked, decl) <= budget
    assert _count_evaluations(synthesize, decl, empty) <= budget


def test_pullback_evaluations_follow_legs_not_leg_pairs():
    decl = PullbackDecl(
        "T", ("B", "qb"), ("C", "qc"), (Path("B", ("f",)), Path("C", ("g",)))
    )
    bs, cs, ds = ([f"{p}{i}" for i in range(n)] for p, n in (("b", 200), ("c", 300), ("d", 10)))
    sets = {"B": frozenset(bs), "C": frozenset(cs), "D": frozenset(ds), "T": frozenset()}
    funcs = {
        "f": {b: ds[i % 10] for i, b in enumerate(bs)},
        "g": {c: ds[i % 10] for i, c in enumerate(cs)},
        "qb": {}, "qc": {},
    }
    d = KeyDiagram(sets=sets, funcs=funcs)
    assert _count_evaluations(synthesize, decl, d) == 500
    full = synthesize(decl, d)
    assert len(full.sets["T"]) == 200 * 300 // 10
    assert _count_evaluations(check_pullback, full, decl) == 500
    assert check_pullback(full, decl) == check_pullback_by_pairs(full, decl)


def _calls(owner, name, fn, *args) -> int:
    """How many times ``fn(*args)`` calls ``owner.name``."""
    calls = []

    def counting(*a):
        calls.append(a)
        return real(*a)

    real = getattr(owner, name)
    with mock.patch.object(owner, name, counting):
        outcome(fn, *args)
    return len(calls)


@pytest.mark.parametrize("kind", ["product", "singleton", "pullback", "pushout"])
def test_a_passing_check_builds_no_limit_and_no_quotient(kind):
    builder = "_pushout_quotient" if kind == "pushout" else "_limit_tuples"
    rng = random.Random(f"passing-{kind}")
    for _ in range(40):
        g, decl, empty = random_world(rng, kind)
        assert _calls(sketch, builder, synthesize, decl, empty) == 1
        full = synthesize(decl, empty)
        assert check_decl(full, g, decl).passed
        assert _calls(sketch, builder, check_decl, full, g, decl) == 0


@pytest.mark.parametrize("olog,data", [
    ("metric.olog", "data_metric"), ("duck.olog", "data_duck"),
    ("factorial.olog", "data_factorial"), ("family.olog", "data_family"),
])
def test_passing_fixture_checks_build_no_limit_and_sort_no_keys(olog, data):
    spec = load_olog(olog)
    loaded = load_data(data, spec)
    d = KeyDiagram(sets=dict(loaded.sets), funcs=loaded.funcs)
    for decl in spec.sketch:
        assert check_decl(d, spec.graph, decl).passed
        assert _calls(KeyDiagram, "keys", check_decl, d, spec.graph, decl) == 0
        for builder in ("_limit", "_limit_tuples", "_pushout_quotient"):
            assert _calls(sketch, builder, check_decl, d, spec.graph, decl) == 0
    for fact in spec.facts:
        assert satisfies_fact(d, fact).satisfied
        assert _calls(KeyDiagram, "keys", satisfies_fact, d, fact) == 0
    assert _calls(KeyDiagram, "keys", intent, d, spec.graph, 2) == 0
    assert "_sorted" not in d.__dict__


def test_a_passing_image_check_sorts_no_keys():
    rng = random.Random("passing-image")
    for _ in range(40):
        g, decl, empty = random_world(rng, "image")
        full = synthesize(decl, empty)
        assert check_decl(full, g, decl).passed
        assert _calls(KeyDiagram, "keys", check_decl, full, g, decl) == 0


def test_a_failing_pushout_evaluates_its_span_once():
    # One key per apex key and span path; the quotient that names the
    # witness reuses the columns the check evaluated.
    rng = random.Random("failing-pushout")
    for _ in range(40):
        g, decl, empty = random_world(rng, "pushout")
        full = synthesize(decl, empty)
        target = full.sets[decl.target] | {"extra"}
        d = KeyDiagram(sets={**full.sets, decl.target: target}, funcs=full.funcs)
        result = check_decl(d, g, decl)
        assert result.witness == "target key 'extra' is not reached from either leg"
        apex = d.sets.get(decl.span[0].source, frozenset())
        assert _count_evaluations(check_decl, d, g, decl) == 2 * len(apex)


def test_a_failing_fact_check_sorts_no_key_set(family_spec):
    loaded = load_data("data_family_mutated", family_spec)
    d = KeyDiagram(sets=dict(loaded.sets), funcs=loaded.funcs)
    checks = [satisfies_fact(d, fact) for fact in family_spec.facts]
    assert not all(c.satisfied for c in checks)
    for c in checks:
        keys = [ce.key for ce in c.counterexamples]
        assert keys == sorted(keys)
    assert "_sorted" not in d.__dict__


# --- one limit for products and pullbacks -------------------------------------

LIMIT_ORACLES = {
    "product": (check_product_by_factors, synthesize_product_by_factors),
    "singleton": (check_product_by_factors, synthesize_product_by_factors),
    "pullback": (check_pullback_by_pairs, synthesize_pullback_by_pairs),
}


def _with_target_key_dropped_or_duplicated(rng, full: KeyDiagram, decl):
    """The synthesized diagram, then it with one target key dropped, then
    with one target key duplicated under a fresh name."""
    yield full
    keys = sorted(full.sets[decl.target])
    if not keys:
        return
    victim = rng.choice(keys)
    yield KeyDiagram(
        sets={**full.sets, decl.target: frozenset(keys) - {victim}}, funcs=full.funcs
    )
    funcs = {aid: dict(f) for aid, f in full.funcs.items()}
    for _, aid in legs(decl):
        funcs[aid]["twin"] = funcs[aid][victim]
    yield KeyDiagram(sets={**full.sets, decl.target: frozenset(keys) | {"twin"}}, funcs=funcs)


@pytest.mark.parametrize("kind", sorted(LIMIT_ORACLES))
def test_limit_matches_the_product_and_pullback_code_it_replaced(kind):
    check_old, synthesize_old = LIMIT_ORACLES[kind]
    rng = random.Random(f"limit-{kind}")
    for _ in range(60):
        g, decl, d = random_world(rng, kind)
        full, old = synthesize(decl, d), synthesize_old(decl, d)
        assert full == old
        for aid in full.funcs:
            assert list(full.funcs[aid].items()) == list(old.funcs[aid].items())
        for variant in _with_target_key_dropped_or_duplicated(rng, full, decl):
            assert check_decl(variant, g, decl) == check_old(variant, decl)
