"""The numbered path universe of ``core``: its order, its tables, its budget,
and the consumers that read it instead of enumerating paths themselves. A
universe only lists paths; the class table of ``entail`` locates one, and
with no facts its states correspond one to one with the paths."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olog import core, dsl, entail
from olog.cli import main
from olog.core import (
    EDGE_BUDGET,
    PATH_BUDGET,
    Aspect,
    Fact,
    Graph,
    Path,
    Specification,
    TypeNode,
    count_paths,
    enumerate_paths,
    path_target,
    path_universe,
)
from olog.entail import PAIR_BUDGET, class_table, consequence, saturate
from olog.errors import BoundExceededError, OlogError
from olog.flow import identity_morphism, inv_flow
from olog.instances import intent, key_diagram

from . import strategies as sts
from .oracles import _canon_key, enumerate_paths_by_levels

# A target that is no type, a type id given twice, and aspect ids whose
# order is not their sources' order.
DANGLING = Graph(
    types=(TypeNode("a", "an a"),),
    aspects=(Aspect("f", "a", "x", "leaves to"), Aspect("g", "x", "a", "comes back to")),
)
DUPLICATE = Graph(
    types=(TypeNode("a", "an a"), TypeNode("a", "another a"), TypeNode("b", "a b")),
    aspects=(Aspect("f", "a", "b", "maps to"), Aspect("e", "b", "a", "maps back to")),
)
UNSORTED = Graph(
    types=(TypeNode("a", "an a"), TypeNode("b", "a b")),
    aspects=(
        Aspect("z", "a", "b", "maps to"),
        Aspect("c", "b", "a", "maps back to"),
        Aspect("m", "a", "a", "steps to"),
    ),
)
LOOP = Graph(types=(TypeNode("m", "a step"),), aspects=(Aspect("f", "m", "m", "is followed by"),))
LOOPS = Graph(
    types=(TypeNode("m", "a monoid element"),),
    aspects=tuple(Aspect(f"g{i}", "m", "m", f"acts by {i}") for i in range(3)),
)

MONOID = Specification(graph=LOOPS, facts=tuple(
    Fact(Path("m", (f"g{i}", f"g{j}")), Path("m", (f"g{j}", f"g{i}")))
    for i, j in ((0, 1), (0, 2), (1, 2))
))


def _check_universe(g: Graph, bound: int):
    u = path_universe(g, bound)
    assert u.paths == sorted(enumerate_paths_by_levels(g, bound), key=_canon_key)
    assert enumerate_paths(g, bound) == enumerate_paths_by_levels(g, bound)
    assert count_paths(g, bound) == len(u.paths) == len(u.end) == len(u.parent) == len(u.right)
    ids = {p: i for i, p in enumerate(u.paths)}
    for i, (src, edges) in enumerate(u.paths):
        assert u.end[i] == path_target(g, u.paths[i])
        assert u.parent[i] == (ids[Path(src, edges[:-1])] if edges else -1)
        if len(edges) < bound:
            want = [ids[Path(src, edges + (a.id,))] for a in g.aspects_from.get(u.end[i], ())]
        else:
            want = []
        assert list(u.right[i]) == want


@settings(max_examples=200, deadline=None)
@given(st.one_of(sts.graphs(), sts.cyclic_graphs()), st.integers(0, 4))
def test_universe_is_the_level_generator_in_canonical_order(g, bound):
    _check_universe(g, bound)


@pytest.mark.parametrize(
    "g", [DANGLING, DUPLICATE, UNSORTED], ids=["dangling", "duplicate", "unsorted"]
)
@pytest.mark.parametrize("bound", range(5))
def test_universe_of_an_irregular_graph(g, bound):
    _check_universe(g, bound)


def test_a_negative_bound_is_a_value_error():
    with pytest.raises(ValueError, match="max_len must be non-negative"):
        enumerate_paths(LOOPS, -1)
    with pytest.raises(ValueError):
        path_universe(LOOPS, -1)


def test_the_budget_refuses_before_building():
    # 3^0 + ... + 3^40 paths, about 1.8e19: only a refusal can return.
    assert count_paths(LOOPS, 12) == (3**13 - 1) // 2 <= PATH_BUDGET
    assert count_paths(LOOPS, 40) > PATH_BUDGET
    for call in (path_universe, enumerate_paths):
        with pytest.raises(BoundExceededError) as exc:
            call(LOOPS, 40)
        message = str(exc.value)
        assert "bound 40" in message and str(PATH_BUDGET) in message
        assert str(count_paths(LOOPS, 40)) in message
    spec = Specification(graph=LOOPS)
    with pytest.raises(BoundExceededError):
        saturate(spec, 40)


def test_entail_at_a_large_bound_exits_2(tmp_path, capsys):
    olog = tmp_path / "loops.olog"
    olog.write_text(
        'olog loops {\n  type m "a monoid element"\n'
        + "".join(f'  aspect g{i} : m -> m "acts by {i}"\n' for i in range(3))
        + "}\n"
    )
    assert main(["--bound", "40", "entail", str(olog), "--fact", "g0;g1 = g1;g0"]) == 2
    err = capsys.readouterr().err
    assert "bound 40" in err and f"path budget of {PATH_BUDGET}" in err


def test_a_shadowed_aspect_id_is_resolved_as_the_index_does():
    types = (TypeNode("A", "an a"), TypeNode("B", "a b"))
    f = Aspect("f", "A", "B", "maps to")
    shadowed = Graph(types=types, aspects=(f, Aspect("f", "B", "A", "maps back to")))
    plain = Graph(types=types, aspects=(f,))
    fact = Fact(Path("A", ("f",)), Path("A", ("f",)))
    for bound in (1, 2, 3):
        got, want = (Specification(graph=g, facts=(fact,)) for g in (shadowed, plain))
        assert saturate(got, bound).classes == saturate(want, bound).classes
        assert consequence(got, bound) == consequence(want, bound)
        d = key_diagram({"A": {"a1", "a2"}, "B": {"b1"}}, {"f": {"a1": "b1", "a2": "b1"}})
        assert intent(d, shadowed, bound) == intent(d, plain, bound)


def test_the_budget_counts_aspect_ids_too():
    # One loop: bound b gives b + 1 paths holding b(b + 1)/2 aspect ids.
    # Within the edge budget up to b = 4471; none of these universes is built.
    assert count_paths(LOOP, 4471) == 4472 and 4471 * 4472 // 2 <= EDGE_BUDGET
    for bound in (4472, 999_999):
        with pytest.raises(BoundExceededError) as exc:
            count_paths(LOOP, bound)
        message = str(exc.value)
        assert f"bound {bound} gives at least 10001628 aspect ids in its paths" in message
        assert f"edge budget of {EDGE_BUDGET}; lower the bound" in message
    # Three loops pass both budgets at bound 13: the path budget is named.
    assert count_paths(LOOPS, 13) > PATH_BUDGET
    with pytest.raises(BoundExceededError, match="path budget"):
        path_universe(LOOPS, 13)


def test_entail_at_a_bound_with_too_many_aspect_ids_exits_2(tmp_path, capsys):
    olog = tmp_path / "loop.olog"
    olog.write_text('olog loop {\n  type m "a step"\n  aspect f : m -> m "is followed by"\n}\n')
    assert main(["entail", str(olog), "--bound", "999999", "--fact", "f;f = f"]) == 2
    err = capsys.readouterr().err
    assert "bound 999999" in err and f"edge budget of {EDGE_BUDGET}" in err


def test_a_state_outside_the_bound_is_refused():
    table = class_table(Specification(graph=LOOPS), 2)
    with pytest.raises(BoundExceededError, match="path of length 3 exceeds bound 2"):
        table.state(Path("m", ("g0", "g1", "g2")))
    with pytest.raises(OlogError, match="unknown aspect 'nope'") as exc:
        table.state(Path("m", ("g0", "nope")))
    assert type(exc.value) is OlogError
    with pytest.raises(OlogError, match="path source 'x' is not a type"):
        table.state(Path("x", ()))
    # A malformed path past the bound is refused for its length, as before.
    with pytest.raises(BoundExceededError):
        table.state(Path("m", ("nope", "g0", "g1")))


def _state_or_error(find, path):
    try:
        return find(path)
    except OlogError as exc:
        return type(exc), str(exc)


def _held_or_refused(graph, bound, path):
    """``path`` itself, its root when no fact is declared, if it fits
    ``bound`` and ``graph``; else the length rule's refusal, then the first
    fault :func:`core.path_target` names."""
    if len(path) > bound:
        return BoundExceededError, f"path of length {len(path)} exceeds bound {bound}"
    try:
        path_target(graph, path)
    except OlogError as exc:
        return type(exc), str(exc)
    return path


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_state_refuses_by_the_length_rule_then_path_target(data):
    # Sources and edges drawn from the graph's ids and two unknown ones, so a
    # path may start nowhere, name an unknown aspect, break the chain or pass
    # the bound.
    g = data.draw(st.one_of(sts.graphs(), sts.cyclic_graphs()))
    bound = data.draw(st.integers(1, 3))
    table = class_table(Specification(graph=g), bound)
    path = Path(
        data.draw(st.sampled_from([t.id for t in g.types] + ["x"])),
        tuple(data.draw(st.lists(st.sampled_from([a.id for a in g.aspects] + ["nope"]),
                                 max_size=bound + 2))),
    )
    got = _state_or_error(lambda p: table.path(table.state(p)), path)
    assert got == _held_or_refused(g, bound, path)


def test_state_and_path_read_no_path_list(monkeypatch):
    # Each step of state reads one transition at the aspect's position, and
    # path(s) reads one root back through its parents. The copy of the graph
    # holds no universe, so any would be numbered anew.
    paths = list(enumerate_paths_by_levels(UNSORTED, 4))
    monkeypatch.setattr(core, "_number", lambda g, b: pytest.fail("a path universe was built"))
    table = class_table(Specification(graph=Graph(UNSORTED.types, UNSORTED.aspects)), 4)
    states = [table.state(p) for p in paths]
    assert sorted(states) == list(range(len(table.root))) == list(range(len(paths)))
    assert [table.path(s) for s in states] == paths


def test_the_pair_budget_refuses_every_emitter_before_it_emits(monkeypatch):
    d = key_diagram({"m": {"0", "1", "2"}}, {
        "g0": {"0": "1", "1": "2", "2": "0"}, "g1": {"0": "0", "1": "2", "2": "1"},
        "g2": {"0": "1", "1": "1", "2": "1"},
    })
    emitters = {
        "consequence": lambda: consequence(MONOID, 3),
        "inv_flow": lambda: inv_flow(identity_morphism(LOOPS), MONOID.facts, 3),
        "intent": lambda: intent(d, LOOPS, 3),
    }
    for name, emit in emitters.items():
        monkeypatch.setattr(entail, "PAIR_BUDGET", PAIR_BUDGET)
        pairs = emit()
        monkeypatch.setattr(entail, "PAIR_BUDGET", len(pairs))
        assert emit() == pairs, name
        monkeypatch.setattr(entail, "PAIR_BUDGET", len(pairs) - 1)
        with pytest.raises(BoundExceededError) as exc:
            emit()
        assert str(exc.value) == (
            f"bound 3 gives {len(pairs)} pairs to emit, more than the pair budget "
            f"of {len(pairs) - 1}; lower the bound"
        ), name


def test_flow_inv_past_the_pair_budget_exits_2(tmp_path, capsys):
    # The monoid at bound 9 has 29,524 paths whose classes hold 19,791,004
    # ordered pairs. They are counted and refused; none is made.
    olog, omap = tmp_path / "monoid.olog", tmp_path / "identity.omap"
    olog.write_text(dsl.print_olog(MONOID))
    omap.write_text("type m => m\n" + "".join(f"aspect g{i} => g{i}\n" for i in range(3)))
    argv = ["--bound", "9", "flow", "inv", "--morphism", omap, "--source", olog, "--target", olog]
    tracemalloc.start()
    try:
        code = main([str(a) for a in argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == (
        f"bound 9 gives 19791004 pairs to emit, more than the pair budget of {PAIR_BUDGET}; "
        "lower the bound\n"
    )
    assert 19_791_004 > PAIR_BUDGET >= 2_471_167  # the monoid still answers at bound 8
    assert peak < 64 * 2**20  # the refused pairs would take gigabytes
