from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olog import core
from olog.core import (
    Aspect,
    Fact,
    Graph,
    Path,
    Specification,
    TypeNode,
    format_fact,
    identity_path,
)
from olog.entail import (
    ENTAILED,
    NOT_DERIVABLE,
    class_table,
    consequence,
    entails,
    saturate,
    spec_leq,
)
from olog.errors import BoundExceededError, GraphMismatchError, OlogError
from olog.instances import intent, satisfies_fact

from . import strategies as sts
from .conftest import FIXTURES, load_olog
from .oracles import (
    enumerate_equations,
    naive_consequence,
    saturate_by_paths,
    saturate_by_rounds,
)


def cls_of(cong, path):
    """The class of ``cong`` that holds ``path``, its root first."""
    return next(c for c in cong.classes if path in c)


# --- enumerate_equations ---------------------------------------------------


def test_enumerate_equations_is_not_in_the_library():
    import importlib
    import pkgutil

    import olog

    assert "enumerate_equations" not in olog.__all__
    for info in pkgutil.iter_modules(olog.__path__):
        module = importlib.import_module(f"olog.{info.name}")
        assert not hasattr(module, "enumerate_equations"), info.name
    assert not hasattr(olog, "enumerate_equations")


def test_enumerate_family_bound2(family_spec):
    g = family_spec.graph
    eqs = set(enumerate_equations(g, 2))
    assert Fact(Path("person", ("parents", "w")), Path("person", ("mother",))) in eqs
    for p in ("person", "pair", "woman"):
        assert Fact(identity_path(p), identity_path(p)) in eqs
    # brute force: every pair of parallel paths is present, nothing else
    from olog.core import enumerate_paths, path_target

    paths = enumerate_paths(g, 2)
    expected = {
        Fact(p, q)
        for p in paths
        for q in paths
        if p.source == q.source and path_target(g, p) == path_target(g, q)
    }
    assert eqs == expected


def test_enumerate_single_type_no_aspects():
    g = Graph(types=(TypeNode("x", "a thing"),))
    eqs = enumerate_equations(g, 3)
    assert eqs == (Fact(identity_path("x"), identity_path("x")),)


def test_enumerate_empty_graph():
    assert enumerate_equations(Graph(), 3) == ()


# --- saturate ---------------------------------------------------------------


def test_saturate_family_class(family_spec):
    cong = saturate(family_spec, 2)
    # the root, the shortest member, opens the class
    assert cls_of(cong, Path("person", ("parents", "w"))) == (
        Path("person", ("mother",)),
        Path("person", ("parents", "w")),
    )


def test_universe_lists_the_sorted_paths_of_the_path_universe(family_spec, employee_spec):
    for spec in (family_spec, employee_spec):
        cong = saturate(spec, 3)
        assert cong.universe == tuple(sorted(core.path_universe(spec.graph, 3).paths))


def test_saturate_no_facts_is_discrete(family_spec):
    cong = saturate(Specification(graph=family_spec.graph), 2)
    assert all(len(c) == 1 for c in cong.classes)


def test_saturate_employee_bound3(employee_spec):
    cong = saturate(employee_spec, 3)
    assert Path("employee", ("works_in",)) in cls_of(
        cong, Path("employee", ("manager", "works_in"))
    )
    assert identity_path("department") in cls_of(
        cong, Path("department", ("secretary", "works_in"))
    )


def test_saturate_rejects_oversized_fact(family_spec):
    big = Fact(Path("person", ("parents", "w")), Path("person", ("mother",)))
    spec = Specification(graph=family_spec.graph, facts=(big,))
    with pytest.raises(BoundExceededError) as exc:
        saturate(spec, 1)
    assert exc.value.fact == big


def test_state_of_an_ill_formed_path_names_its_fault(family_spec):
    table = class_table(family_spec, 3)
    with pytest.raises(OlogError, match="unknown aspect 'nope'") as exc:
        table.state(Path("person", ("nope",)))
    assert not isinstance(exc.value, BoundExceededError)


@pytest.mark.parametrize(
    "lhs, rhs, reason",
    [
        (Path("a"), Path("a", ("f",)), "end at different types"),
        (Path("b"), Path("a", ("f",)), "start at different types"),
        (Path("a", ("g",)), Path("a", ("f",)), "unknown aspect 'g'"),
    ],
)
def test_saturate_rejects_ill_formed_fact(lhs, rhs, reason):
    g = Graph(
        types=(TypeNode("a", "an a"), TypeNode("b", "a b")),
        aspects=(Aspect("f", "a", "b", "has"),),
    )
    bad = Fact(lhs, rhs)
    spec = Specification(graph=g, facts=(bad,))
    with pytest.raises(OlogError, match=reason) as exc:
        saturate(spec, 2)
    assert format_fact(bad) in str(exc.value)
    assert not isinstance(exc.value, BoundExceededError)


def test_saturate_skips_aspects_from_missing_types():
    # No path of the universe starts at 'ghost', so left whiskering by 'a'
    # extends nothing, even after a merge at 't'.
    g = Graph(
        types=(TypeNode("t", "a t"),),
        aspects=(Aspect("a", "ghost", "t", "haunts"), Aspect("f", "t", "t", "steps to")),
    )
    spec = Specification(graph=g, facts=(Fact(Path("t", ("f", "f")), Path("t", ("f",))),))
    assert set(consequence(spec, 3)) == naive_consequence(g, spec.facts, 3)


# --- entails ----------------------------------------------------------------


def test_entails_family(family_spec):
    fact = Fact(Path("person", ("parents", "w")), Path("person", ("mother",)))
    assert entails(family_spec, fact, 2) == ENTAILED
    assert entails(family_spec, Fact(fact.rhs, fact.lhs), 2) == ENTAILED


def test_entails_tautology(employee_spec):
    p = Path("employee", ("manager", "first_name"))
    assert entails(employee_spec, Fact(p, p), 3) == ENTAILED


def test_entails_factorial(factorial_spec):
    declared = Fact(Path("pos", ("i1", "f")), Path("pos", ("s", "m")))
    assert entails(factorial_spec, declared, 3) == ENTAILED
    open_q = Fact(Path("pos", ("s", "m")), Path("pos", ("s", "q")))
    assert entails(factorial_spec, open_q, 3) == NOT_DERIVABLE
    # cross-check with the rule-application oracle
    oracle = naive_consequence(factorial_spec.graph, factorial_spec.facts, 3)
    assert declared in oracle and open_q not in oracle


def test_entails_query_bound_overflow(employee_spec):
    q = Fact(Path("employee", ("manager",) * 4), Path("employee", ("manager",)))
    with pytest.raises(BoundExceededError):
        entails(employee_spec, q, 3)


def test_entails_checks_the_bound_before_the_fact(employee_spec):
    # As saturate, spec_leq and consequence do: the bound is checked first.
    q = Fact(Path("employee", ("manager",)), Path("employee", ("manager",)))
    ident = Fact(identity_path("employee"), identity_path("employee"))
    for fact, bound in ((q, 0), (ident, 0), (ident, -1)):
        with pytest.raises(ValueError, match="bound must be a positive integer"):
            entails(employee_spec, fact, bound)
    for call in (saturate, consequence):
        with pytest.raises(ValueError, match="bound must be a positive integer"):
            call(employee_spec, 0)
    with pytest.raises(ValueError, match="bound must be a positive integer"):
        spec_leq(employee_spec, employee_spec, 0)


TAGGED_LOOP = Graph(
    types=(TypeNode("m", "a step"), TypeNode("n", "a tag")),
    aspects=(Aspect("f", "m", "m", "is followed by"), Aspect("t", "m", "n", "is tagged")),
)


@pytest.mark.parametrize("e2_first", [False, True], ids=["e2 queried", "e2 declared"])
@pytest.mark.parametrize(
    "fact, messages",
    [
        (Fact(Path("m", ("f",) * 4), Path("m", ("f",))),
         ("queried fact 'f;f;f;f = f' has a side longer than bound 3",
          "declared fact 'f;f;f;f = f' has a side longer than bound 3")),
        (Fact(Path("m", ("t",)), Path("m")),
         ("fact t = id(m): fact sides end at different types: 'n' vs 'm'",
          "declared fact t = id(m): fact sides end at different types: 'n' vs 'm'")),
    ],
    ids=["overlong", "ill-formed"],
)
def test_spec_leq_names_a_bad_fact_on_either_side(fact, messages, e2_first):
    e1, e2 = Specification(graph=TAGGED_LOOP), Specification(graph=TAGGED_LOOP, facts=(fact,))
    with pytest.raises(OlogError) as exc:
        spec_leq(*((e2, e1) if e2_first else (e1, e2)), 3)
    assert str(exc.value) == messages[e2_first]
    if isinstance(exc.value, BoundExceededError):
        assert exc.value.fact == fact


# --- consequence ------------------------------------------------------------


def test_consequence_family_matches_oracle(family_spec):
    got = set(consequence(family_spec, 2))
    want = naive_consequence(family_spec.graph, family_spec.facts, 2)
    assert got == want
    fact = Fact(Path("person", ("parents", "w")), Path("person", ("mother",)))
    assert fact in got and Fact(fact.rhs, fact.lhs) in got


def test_consequence_no_facts_reflexive_only(family_spec):
    got = consequence(Specification(graph=family_spec.graph), 2)
    assert all(f.lhs == f.rhs for f in got)


def test_consequence_employee_contains_squared_manager(employee_spec):
    got = set(consequence(employee_spec, 3))
    assert (
        Fact(
            Path("employee", ("manager", "manager", "works_in")),
            Path("employee", ("works_in",)),
        )
        in got
    )


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_consequence_matches_oracle_employee(employee_spec, bound):
    if bound < 2:
        with pytest.raises(BoundExceededError):
            consequence(employee_spec, bound)
        return
    got = set(consequence(employee_spec, bound))
    want = naive_consequence(employee_spec.graph, employee_spec.facts, bound)
    assert got == want


@given(data=st.data(), graph=sts.graphs(max_types=3, max_aspects=4))
@settings(max_examples=30, deadline=None)
def test_consequence_matches_oracle_random(data, graph):
    spec = data.draw(sts.specs_on(graph, max_facts=2, max_len=2))
    got = set(consequence(spec, 3))
    want = naive_consequence(graph, spec.facts, 3)
    assert got == want


def test_monotone_in_bound(employee_spec):
    small = set(consequence(employee_spec, 2))
    large = set(consequence(employee_spec, 3))
    assert small <= large


def test_monotone_in_facts(employee_spec):
    weaker = Specification(graph=employee_spec.graph, facts=employee_spec.facts[:1])
    assert set(consequence(weaker, 3)) <= set(consequence(employee_spec, 3))


def test_union_is_meet(employee_spec):
    g = employee_spec.graph
    e1 = Specification(graph=g, facts=employee_spec.facts[:1])
    e2 = Specification(graph=g, facts=employee_spec.facts[1:])
    union = Specification(graph=g, facts=employee_spec.facts)
    got = set(consequence(union, 3))
    assert set(consequence(e1, 3)) <= got
    assert set(consequence(e2, 3)) <= got


# --- spec_leq ---------------------------------------------------------------


def test_spec_leq_reflexive_and_empty_top(employee_spec):
    assert spec_leq(employee_spec, employee_spec, 3)
    empty = Specification(graph=employee_spec.graph)
    assert spec_leq(employee_spec, empty, 3)
    assert not spec_leq(empty, employee_spec, 3)


def test_spec_leq_order(employee_spec):
    manager_only = Specification(
        graph=employee_spec.graph,
        facts=tuple(f for f in employee_spec.facts if "manager" in f.lhs.edges),
    )
    assert spec_leq(employee_spec, manager_only, 3)
    assert not spec_leq(manager_only, employee_spec, 3)


def test_spec_leq_transitive(employee_spec):
    g = employee_spec.graph
    e0 = Specification(graph=g)
    e1 = Specification(graph=g, facts=employee_spec.facts[:1])
    assert spec_leq(employee_spec, e1, 3)
    assert spec_leq(e1, e0, 3)
    assert spec_leq(employee_spec, e0, 3)


def test_spec_leq_needs_shared_graph(employee_spec, family_spec):
    with pytest.raises(GraphMismatchError):
        spec_leq(employee_spec, family_spec, 3)


# --- soundness bridge to instance data --------------------------------------


@pytest.mark.parametrize(
    "spec_name,data_name,bound",
    [
        ("family", "family", 2),
        ("employee", "employee", 3),
        ("factorial", "factorial", 3),
    ],
)
def test_consequence_sound_on_models(request, spec_name, data_name, bound):
    spec = request.getfixturevalue(f"{spec_name}_spec")
    d = request.getfixturevalue(f"{data_name}_data")
    for fact in consequence(spec, bound):
        assert satisfies_fact(d, fact).satisfied, fact


def test_congruence_classes_share_endpoints(employee_spec, metric_spec):
    from olog.core import path_target

    for spec, bound in ((employee_spec, 3), (metric_spec, 3)):
        cong = saturate(spec, bound)
        for cls in cong.classes:
            sources = {p.source for p in cls}
            targets = {path_target(spec.graph, p) for p in cls}
            assert len(sources) == 1 and len(targets) == 1


# --- worklist saturation against the round loop ------------------------------


def monoid(k: int) -> Specification:
    """One type, k generators and every commuting fact."""
    gens = tuple(Aspect(id=f"g{i}", src="m", tgt="m", label=f"acts by {i}") for i in range(k))
    g = Graph(types=(TypeNode(id="m", label="a monoid element"),), aspects=gens)
    facts = tuple(
        Fact(Path("m", (a.id, b.id)), Path("m", (b.id, a.id)))
        for i, a in enumerate(gens) for b in gens[i + 1:]
    )
    return Specification(graph=g, facts=facts)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_saturate_matches_round_loop_at_bound_length_facts(data):
    # Facts as long as the bound: a closure that whiskers the popped pair
    # instead of the roots of the merged classes fails here.
    bound = data.draw(st.integers(1, 4))
    graph = data.draw(sts.cyclic_graphs())
    spec = data.draw(sts.specs_on(graph, max_facts=3, max_len=bound))
    assert saturate(spec, bound).classes == saturate_by_rounds(spec, bound).classes
    assert set(consequence(spec, bound)) == naive_consequence(graph, spec.facts, bound)


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.olog")))
def test_saturate_matches_round_loop_on_fixtures(name):
    spec = load_olog(name)
    for bound in range(1, 6):
        try:
            want = saturate_by_rounds(spec, bound).classes
        except BoundExceededError:
            with pytest.raises(BoundExceededError):
                saturate(spec, bound)
            continue
        assert saturate(spec, bound).classes == want


@pytest.mark.parametrize("k,bound", [(2, 8), (3, 5)])
def test_saturate_matches_round_loop_on_monoid(k, bound):
    spec = monoid(k)
    assert saturate(spec, bound).classes == saturate_by_rounds(spec, bound).classes


def test_saturate_runs_without_core_union_find(employee_spec, monkeypatch):
    # Saturation reads the class table; core.UnionFind serves system and sketch.
    want = saturate_by_paths(employee_spec, 4).classes

    def refuse(*args, **kwargs):
        raise AssertionError("saturate used core.UnionFind")

    for name in ("__init__", "find", "union", "classes"):
        monkeypatch.setattr(core.UnionFind, name, refuse)
    assert saturate(employee_spec, 4).classes == want


def _classes_or_error(saturator, spec, bound):
    try:
        return saturator(spec, bound).classes
    except OlogError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_saturate_matches_path_worklist(data):
    # Parallel aspects, identity sides and facts as long as the bound come
    # from the graphs and specs drawn; the extra fact may overflow the bound,
    # join unparallel paths or name an unknown aspect.
    bound = data.draw(st.integers(1, 4))
    graph = data.draw(sts.cyclic_graphs(max_types=3, max_aspects=4))
    spec = data.draw(sts.specs_on(graph, max_facts=3, max_len=bound))
    extra = data.draw(
        st.lists(
            st.one_of(
                sts.parallel_facts(graph, max_len=bound + 1),
                st.builds(Fact, sts.paths_in(graph, bound), sts.paths_in(graph, bound)),
                st.just(Fact(Path("T0", ("r0", "nope")), Path("T0", ("r0",)))),
            ),
            max_size=1,
        )
    )
    spec = Specification(graph=graph, facts=spec.facts + tuple(extra))
    assert _classes_or_error(saturate, spec, bound) == _classes_or_error(
        saturate_by_paths, spec, bound
    )


# --- soundness on random models ------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_consequence_holds_in_every_model_of_the_facts(data):
    # Every fact declared holds in d by construction, so every consequence
    # must. Few types with many aspects, and facts that are not tautologies,
    # give the closure the most to get wrong.
    bound = data.draw(st.integers(1, 3))
    graph = data.draw(st.one_of(sts.graphs(max_types=2, max_aspects=5), sts.cyclic_graphs()))
    d = data.draw(sts.key_diagrams_on(graph, max_keys=3))
    holds = intent(d, graph, bound)
    proper = [f for f in holds if f.lhs != f.rhs] or holds
    facts = data.draw(st.lists(st.sampled_from(proper), max_size=4))
    spec = Specification(graph=graph, facts=tuple(facts))
    assert set(consequence(spec, bound)) <= set(holds)
