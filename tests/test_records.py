"""The value classes behave as the dataclasses they were.

Each value class of ``core``, ``entail``, ``flow``, ``instances``, ``sketch``
and ``system`` is built by ``core.record``. Its twin in ``tests/oracles.py``
is the ``@dataclass`` it replaced. On the same field values, a class and its
twin must give the same equality, hash and order (or the same ``TypeError``),
the same ``repr``, the same defaults and argument errors, and the same
refusal to assign or delete an attribute.
"""

from __future__ import annotations

import operator
from dataclasses import MISSING, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olog import core
from olog.core import (
    Aspect,
    CoproductDecl,
    Fact,
    Graph,
    ImageDecl,
    Path,
    ProductDecl,
    PullbackDecl,
    PushoutDecl,
    Specification,
    TypeNode,
)
from olog.entail import Congruence
from olog.flow import GraphMorphism
from olog.instances import Counterexample, FactCheck, KeyDiagram, SatisfactionReport, key_diagram
from olog.sketch import CheckResult
from olog.system import (
    Channel,
    DistributedSystem,
    InformationSystem,
    Shape,
    SystemMorphism,
    validate_system,
)

from . import oracles

SETTINGS = settings(max_examples=60, deadline=None)
OPS = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)


def tuples_of(values, max_size=2):
    return st.lists(values, max_size=max_size).map(tuple)


def one_of_each(values):
    return st.dictionaries(ids, values, max_size=1)


# Few distinct values, so that random pairs are often equal in some fields.
ids = st.sampled_from(["a", "b"])
labels = st.sampled_from(["", "x"])
paths = st.builds(Path, ids, st.lists(st.sampled_from(["f", "g"]), max_size=2).map(tuple))
facts = st.builds(Fact, paths, paths)
legs = st.tuples(ids, st.sampled_from(["p", "q"]))
flags = st.sampled_from([frozenset(), frozenset({"w"})])
type_nodes = st.builds(TypeNode, ids, labels, flags)
modifiers = st.sampled_from([frozenset(), frozenset({"injective"})])
aspects = st.builds(Aspect, ids, ids, ids, labels, modifiers)
graphs = st.builds(Graph, tuples_of(type_nodes, 3), tuples_of(aspects, 3))
decls = st.one_of(
    st.builds(ProductDecl, ids, tuples_of(legs)),
    st.builds(PullbackDecl, ids, legs, legs, st.tuples(paths, paths)),
    st.builds(CoproductDecl, ids, tuples_of(legs)),
    st.builds(PushoutDecl, ids, legs, legs, st.tuples(paths, paths)),
    st.builds(ImageDecl, ids, paths, ids, ids),
)
specs = st.builds(Specification, graphs, tuples_of(facts, 3), tuples_of(decls), ids)
counterexamples = st.builds(Counterexample, facts, ids, ids, ids)
fact_checks = st.builds(FactCheck, facts, tuples_of(counterexamples))
shapes = st.builds(Shape, tuples_of(ids, 3), tuples_of(st.tuples(ids, ids, ids)))
id_maps, path_maps = st.dictionaries(ids, ids, max_size=2), st.dictionaries(ids, paths, max_size=2)
morphisms = st.builds(GraphMorphism, graphs, graphs, id_maps, path_maps)


# Each class: its dataclass twin and a strategy for each of its fields.
RECORDS = {
    TypeNode: (oracles.DataclassTypeNode, (ids, labels, flags)),
    Aspect: (oracles.DataclassAspect, (ids, ids, ids, labels, modifiers)),
    Graph: (oracles.DataclassGraph, (tuples_of(type_nodes, 3), tuples_of(aspects, 3))),
    ProductDecl: (oracles.DataclassProductDecl, (ids, tuples_of(legs))),
    PullbackDecl: (oracles.DataclassPullbackDecl, (ids, legs, legs, st.tuples(paths, paths))),
    CoproductDecl: (oracles.DataclassCoproductDecl, (ids, tuples_of(legs))),
    PushoutDecl: (oracles.DataclassPushoutDecl, (ids, legs, legs, st.tuples(paths, paths))),
    ImageDecl: (oracles.DataclassImageDecl, (ids, paths, ids, ids)),
    Specification: (
        oracles.DataclassSpecification, (graphs, tuples_of(facts, 3), tuples_of(decls), ids)
    ),
    Congruence: (
        oracles.DataclassCongruence, (graphs, st.integers(0, 2), tuples_of(tuples_of(paths)))
    ),
    GraphMorphism: (oracles.DataclassGraphMorphism, (graphs, graphs, id_maps, path_maps)),
    KeyDiagram: (
        oracles.DataclassKeyDiagram,
        (st.dictionaries(ids, st.frozensets(ids)), st.dictionaries(ids, id_maps)),
    ),
    Counterexample: (oracles.DataclassCounterexample, (facts, ids, ids, ids)),
    FactCheck: (oracles.DataclassFactCheck, (facts, tuples_of(counterexamples))),
    SatisfactionReport: (oracles.DataclassSatisfactionReport, (tuples_of(fact_checks),)),
    CheckResult: (oracles.DataclassCheckResult, (ids, ids, st.booleans(), labels)),
    Shape: (oracles.DataclassShape, (tuples_of(ids, 3), tuples_of(st.tuples(ids, ids, ids)))),
    DistributedSystem: (
        oracles.DataclassDistributedSystem, (shapes, one_of_each(graphs), one_of_each(morphisms))
    ),
    InformationSystem: (
        oracles.DataclassInformationSystem, (shapes, one_of_each(specs), one_of_each(morphisms))
    ),
    Channel: (oracles.DataclassChannel, (graphs, one_of_each(morphisms))),
    SystemMorphism: (oracles.DataclassSystemMorphism, (one_of_each(morphisms),)),
}
CLASSES = list(RECORDS)
NAMES = [cls.__name__ for cls in CLASSES]


def outcome(fn, *args):
    """What a call returns, or the type of what it raises."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # compared, not handled
        return ("raised", type(exc))


def both(cls, args):
    """The record and its dataclass twin, built from the same field values."""
    return cls(*args), RECORDS[cls][0](*args)


def test_every_value_class_is_a_record():
    assert len(CLASSES) == 21
    for cls in CLASSES:
        assert not hasattr(cls, "__dataclass_fields__"), cls
        assert cls.__match_args__ == RECORDS[cls][0].__match_args__


def test_records_run_code_from_core_not_generated_source():
    for cls in CLASSES:
        for name in ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__"):
            assert getattr(cls, name).__code__.co_filename == core.__file__, (cls, name)


@pytest.mark.parametrize("cls", CLASSES, ids=NAMES)
@SETTINGS
@given(data=st.data())
def test_a_record_compares_hashes_and_prints_as_its_dataclass(cls, data):
    field_values = st.tuples(*RECORDS[cls][1])
    (x, ox), (y, oy) = both(cls, data.draw(field_values)), both(cls, data.draw(field_values))
    for op in OPS:
        assert outcome(op, x, y) == outcome(op, ox, oy), op
    assert outcome(hash, x) == outcome(hash, ox)
    assert repr(x) == repr(ox).replace("Dataclass", "", 1)
    assert vars(x) == vars(ox)
    # Another class never compares equal, and never orders.
    other = CLASSES[(CLASSES.index(cls) + 1) % len(CLASSES)]
    z, oz = both(other, data.draw(st.tuples(*RECORDS[other][1])))
    for op in OPS:
        assert outcome(op, x, z) == outcome(op, ox, oz), op


@pytest.mark.parametrize("cls", CLASSES, ids=NAMES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_a_record_is_frozen(cls, data):
    args = data.draw(st.tuples(*RECORDS[cls][1]))
    for obj in both(cls, args):
        before = dict(vars(obj))
        for name in (*cls.__match_args__, "extra"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert vars(obj) == before


@pytest.mark.parametrize("cls", CLASSES, ids=NAMES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_a_record_binds_arguments_as_its_dataclass(cls, data):
    twin, strategies = RECORDS[cls]
    args = data.draw(st.tuples(*strategies))
    names = [f.name for f in fields(twin)]
    n_required = sum(f.default is MISSING for f in fields(twin))
    keywords = list(zip(names, args))
    calls = [
        (args[:n_required], {}),  # the defaults
        ((), dict(keywords[:n_required])),
        ((), dict(keywords)),
        (args[:1], dict(keywords[1:])),
        (args[: n_required - 1], {}),  # the last required one missing
        ((), dict(keywords[1:])),  # the first one missing
        ((), {**dict(keywords[1:]), "extra": 1}),  # the first missing, one unknown
        (args + args[:1], {}),  # one too many
        (args, {names[0]: args[0]}),  # one given twice
        (args, {"extra": 1}),  # one unknown
        ((), {**dict(keywords), "extra": 1}),
    ]
    for a, kw in calls:
        got, want = outcome(lambda: cls(*a, **kw)), outcome(lambda: twin(*a, **kw))
        if want[0] == "ok":
            assert got[0] == "ok" and vars(got[1]) == vars(want[1])
        else:
            assert got == want == ("raised", TypeError)


def test_lint_flags_take_no_part_in_equality_or_hash():
    plain, flagged = TypeNode("a", "an a"), TypeNode("a", "an a", frozenset({"plural"}))
    assert plain == flagged and hash(plain) == hash(flagged)
    assert flagged.lint_flags == {"plural"} and plain.lint_flags == frozenset()
    assert "lint_flags=frozenset({'plural'})" in repr(flagged)


def test_declarations_of_different_kinds_stay_apart():
    product, coproduct = ProductDecl("t", ()), CoproductDecl("t", ())
    leg, span = ("b", "p"), (Path("a"), Path("a"))
    pullback, pushout = PullbackDecl("t", leg, leg, span), PushoutDecl("t", leg, leg, span)
    for x, y in ((product, coproduct), (pullback, pushout)):
        assert x != y and len({x, y}) == 2
        with pytest.raises(TypeError):
            x < y  # noqa: B015
    g = Graph((TypeNode("t", "a t"),))
    spec = Specification(graph=g, sketch=(coproduct, product, product, pushout, pullback))
    # By kind: empty, pullback, pushout, singleton.
    assert spec.sketch == (coproduct, pullback, pushout, product)


def test_post_init_canonicalizes_and_graph_caches_its_indexes():
    b, a = TypeNode("b", "a b"), TypeNode("a", "an a")
    g, f = Aspect("g", "a", "b", "maps to"), Aspect("f", "b", "a", "maps back to")
    graph = Graph((b, a), (g, f))
    assert graph.types == (a, b) and graph.aspects == (f, g)
    assert graph == Graph((a, b), (f, g))
    fresh_hash, fresh_repr = hash(graph), repr(graph)
    index = graph.type_by_id
    assert index == {"a": a, "b": b} and graph.type_by_id is index
    assert graph.aspects_from == {"a": (g,), "b": (f,)}
    assert {"type_by_id", "aspect_by_id", "aspects_from"} <= set(vars(graph))
    # A filled cache is not part of the value.
    assert graph == Graph((a, b), (f, g)) and hash(graph) == fresh_hash
    assert repr(graph) == fresh_repr
    assert Shape(("n", "m"), (("e", "n", "m"),)).nodes == ("m", "n")
    spec = Specification(graph, (Fact(Path("b"), Path("b")), Fact(Path("a"), Path("a"))) * 2)
    assert spec.facts == (Fact(Path("a"), Path("a")), Fact(Path("b"), Path("b")))


def test_a_required_field_after_a_defaulted_one_is_refused():
    class Late:
        early: int = 0
        late: int

    with pytest.raises(TypeError, match="^Late: fields with defaults must come last$"):
        core.record(Late)


def test_each_system_keeps_its_own_validation_memo():
    spec = Specification(graph=Graph((TypeNode("a", "an a"),)))
    one, two = (InformationSystem(Shape(("n",)), {"n": spec}, {}) for _ in range(2))
    assert one == two and one._passed_bounds is not two._passed_bounds
    assert validate_system(one, 2) == []
    assert one._passed_bounds == {2} and two._passed_bounds == set()
    with pytest.raises(TypeError):
        one.specs["m"] = spec


def test_a_key_diagram_compares_by_contents_and_is_unhashable():
    d = key_diagram({"a": ["x", "y"]}, {"f": {"x": "y"}})
    assert d == key_diagram({"a": ("y", "x")}, {"f": {"x": "y"}})
    assert d != key_diagram({"a": ["x"]}, {"f": {"x": "y"}})
    with pytest.raises(TypeError):
        hash(d)
    with pytest.raises(TypeError):
        {d}
