"""Structures derived once per value: a graph's path universe, a
specification's class table, a system's fusion and a diagram's sorted keys.

Each is held on the value it is derived from, one slot per structure: asked
again at the same bound it is the same object, asked at another it is built
anew. Whatever is held must equal a fresh build on an equal but distinct
copy of the value, and a refusal must be raised on every call, never held.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olog import core, dsl, entail, system
from olog.core import Aspect, Fact, Graph, Path, Specification, TypeNode, path_universe
from olog.entail import class_table, saturate
from olog.errors import BoundExceededError, OlogError
from olog.flow import is_spec_morphism
from olog.instances import KeyDiagram, key_diagram
from olog.system import fusion, system_consequence

from . import strategies as sts
from .conftest import FIXTURES, roots

LOOPS = Graph(
    types=(TypeNode("m", "a monoid element"),),
    aspects=tuple(Aspect(f"g{i}", "m", "m", f"acts by {i}") for i in range(3)),
)


def _tables(u):
    return u._replace(right=[list(r) for r in u.right])


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (ValueError, OlogError) as exc:
        return "raised", type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(
    st.data(),
    st.one_of(sts.graphs(), sts.cyclic_graphs()),
    st.lists(st.integers(0, 5), min_size=1, max_size=8),
)
def test_held_structures_equal_a_fresh_build_at_every_bound(data, g, bounds):
    spec = data.draw(sts.specs_on(g))
    for bound in bounds:
        # An equal but distinct copy holds nothing yet.
        fresh_graph = Graph(g.types, g.aspects)
        fresh = Specification(graph=fresh_graph, facts=spec.facts)
        u = path_universe(g, bound)
        assert _tables(u) == _tables(path_universe(fresh_graph, bound))
        assert path_universe(g, bound) is u

        got, want = _outcome(class_table, spec, bound), _outcome(class_table, fresh, bound)
        if want[0] == "raised":
            assert got == want
            assert _outcome(class_table, spec, bound) == want
            continue
        table = got[1]
        assert roots(spec, bound) == roots(fresh, bound)
        assert class_table(spec, bound) is table
        assert saturate(spec, bound) == saturate(
            Specification(graph=Graph(g.types, g.aspects), facts=spec.facts), bound
        )
        assert class_table(spec, bound) is table


def test_a_budget_refusal_is_raised_on_every_call_and_leaves_the_slot():
    g = Graph(LOOPS.types, LOOPS.aspects)
    u = path_universe(g, 3)
    for _ in range(2):
        with pytest.raises(BoundExceededError, match="more than the path budget"):
            path_universe(g, 40)
    assert path_universe(g, 3) is u


def test_a_bad_fact_and_a_bound_below_one_are_raised_on_every_call():
    bad = Specification(graph=LOOPS, facts=(Fact(Path("m", ("g0",)), Path("m", ("nope",))),))
    swap = Fact(Path("m", ("g0", "g1")), Path("m", ("g1", "g0")))
    long = Specification(graph=LOOPS, facts=(swap,))
    for _ in range(2):
        with pytest.raises(OlogError, match="declared fact"):
            class_table(bad, 3)
        with pytest.raises(BoundExceededError, match="longer than bound 1"):
            class_table(long, 1)
    table = class_table(long, 2)
    for _ in range(2):
        with pytest.raises(ValueError, match="positive"):
            class_table(long, 0)
    assert class_table(long, 2) is table


def test_another_bound_replaces_the_held_value():
    spec = Specification(graph=Graph(LOOPS.types, LOOPS.aspects))
    at2, at3 = class_table(spec, 2), class_table(spec, 3)
    assert at3 is not at2 and class_table(spec, 3) is at3
    again = class_table(spec, 2)
    assert again is not at2 and class_table(spec, 2) is again and again.root == at2.root


def test_a_network_derives_each_structure_once(monkeypatch):
    # Each graph is numbered once, each specification's class table built
    # once and the channel built once, however many calls ask for them.
    numbered, closed, channels = [], [], []
    number, tabulate, channel = core._number, entail._tabulate, system.optimal_channel
    monkeypatch.setattr(core, "_number", lambda g, b: numbered.append(g) or number(g, b))
    monkeypatch.setattr(entail, "_tabulate", lambda s, b: closed.append(s) or tabulate(s, b))
    monkeypatch.setattr(system, "optimal_channel", lambda ds: channels.append(ds) or channel(ds))

    sysm, diags = dsl.parse_system(FIXTURES / "w.osys", bound=5)
    assert sysm is not None and not diags
    eid, src, tgt = sysm.shape.edges[0]
    assert is_spec_morphism(sysm.constraints[eid], sysm.specs[src], sysm.specs[tgt], 5)[0]
    fused = fusion(sysm, 5)
    saturate(fused, 5)
    consequences = system_consequence(sysm, 5)
    assert fusion(sysm, 5) is fused

    assert len(set(map(id, numbered))) == len(numbered)
    assert len(set(map(id, closed))) == len(closed)
    assert fused in closed and {sysm.specs["portal"], sysm.specs["portal2"]} <= set(closed)
    assert len(channels) == 1
    assert set(consequences) == set(sysm.shape.nodes)


def test_keys_are_sorted_once_per_key_set():
    d = key_diagram({"a": ["k3", "k1", "k2"]}, {})
    keys = d.keys("a")
    assert keys == tuple(sorted(d.sets["a"])) and d.keys("a") is keys
    assert d.keys("missing") == tuple(sorted(d.sets.get("missing", frozenset()))) == ()
    d.sets["a"] = frozenset({"k0", "k9"})
    assert d.keys("a") == ("k0", "k9")


@settings(max_examples=100, deadline=None)
@given(st.data(), sts.graphs(max_types=3, max_aspects=3))
def test_keys_equal_sorting_the_key_set(data, graph):
    d = data.draw(sts.key_diagrams_on(graph))
    for t in [*d.sets, "absent"]:
        assert d.keys(t) == tuple(sorted(d.sets.get(t, frozenset())))
    sets = dict(d.sets)
    replaced = KeyDiagram(sets=sets, funcs=d.funcs)
    for t in d.sets:
        replaced.keys(t)
        sets[t] = sets[t] | {"a", "zz"}
        assert replaced.keys(t) == tuple(sorted(sets[t]))
