from __future__ import annotations

import ast
import json
import operator
import re
from dataclasses import astuple
from pathlib import Path as FsPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import olog
from olog.core import (
    _ID,
    KEYWORDS,
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
    UnionFind,
    compose_paths,
    decl_errors,
    enumerate_paths,
    fact_errors,
    id_errors,
    identity_path,
    path_target,
    relation_to_span,
    validate_specification,
)
from olog.errors import CompositionError, OlogError
from olog.flow import GraphMorphism, morphism_errors

from .conftest import load_olog
from . import strategies as sts
from .oracles import (
    DataclassFact,
    DataclassPath,
    TagPartition,
    decl_errors_by_walks,
    fact_errors_by_walks,
    morphism_errors_by_walks,
    path_errors,
    path_target_by_errors,
    validate_specification_by_kinds,
)


def test_compose_concatenates(family_spec):
    g = family_spec.graph
    p = Path("person", ("parents",))
    q = Path("pair", ("w",))
    pq = compose_paths(g, p, q)
    assert pq == Path("person", ("parents", "w"))
    assert path_target(g, pq) == "woman"


def test_compose_identity_laws(family_spec):
    g = family_spec.graph
    q = Path("person", ("parents", "w"))
    assert compose_paths(g, identity_path("person"), q) == q
    assert compose_paths(g, q, identity_path("woman")) == q


def test_compose_factorial_edges(factorial_spec):
    g = factorial_spec.graph
    df = compose_paths(g, Path("pos", ("d",)), Path("nat", ("f",)))
    assert df == Path("pos", ("d", "f"))
    assert path_target(g, df) == "res"


def test_compose_error_names_both_types(family_spec):
    g = family_spec.graph
    with pytest.raises(CompositionError) as exc:
        compose_paths(g, Path("person", ("parents",)), Path("person", ("mother",)))
    assert "pair" in str(exc.value) and "person" in str(exc.value)


def test_compose_refuses_a_second_path_that_is_not_a_path():
    g = Graph(types=(TypeNode("a", "an a"), TypeNode("b", "a b")),
              aspects=(Aspect("f", "a", "b", "f"),))
    with pytest.raises(OlogError, match="aspect 'f' starts at 'a' but the path has reached 'b'"):
        compose_paths(g, Path("a", ("f",)), Path("b", ("f",)))
    with pytest.raises(OlogError, match="unknown aspect 'nope'"):
        compose_paths(g, Path("a", ("f",)), Path("b", ("nope",)))
    # A mismatch is named before the second path is walked.
    with pytest.raises(CompositionError):
        compose_paths(g, Path("a", ("f",)), Path("a", ("nope",)))


@given(data=st.data(), graph=sts.graphs())
@settings(max_examples=60, deadline=None)
def test_compose_associative_with_units(data, graph):
    p, q, r = data.draw(sts.composable_triples(graph))
    left = compose_paths(graph, compose_paths(graph, p, q), r)
    right = compose_paths(graph, p, compose_paths(graph, q, r))
    assert left == right
    assert compose_paths(graph, identity_path(p.source), p) == p
    assert compose_paths(graph, p, identity_path(path_target(graph, p))) == p


FIXTURE_OLOGS = [
    "family.olog",
    "employee.olog",
    "factorial.olog",
    "metric.olog",
    "duck.olog",
    "community.olog",
    "reference.olog",
    "portal.olog",
    "community2.olog",
    "portal2.olog",
    "ground.olog",
    "left.olog",
    "right.olog",
    "emp_manager.olog",
    "emp_secretary.olog",
]


@pytest.mark.parametrize("name", FIXTURE_OLOGS)
def test_validate_accepts_every_fixture(name):
    spec = load_olog(name)
    assert validate_specification(spec) == []


@pytest.mark.parametrize("name", FIXTURE_OLOGS)
def test_validate_rejects_broken_endpoints(name):
    spec = load_olog(name)
    g = spec.graph
    if not g.aspects:
        pytest.skip("no aspects to break")
    victim = g.aspects[0].src
    mutated = Specification(
        graph=Graph(
            types=tuple(t for t in g.types if t.id != victim),
            aspects=g.aspects,
        ),
        facts=spec.facts,
        sketch=spec.sketch,
    )
    assert validate_specification(mutated) != []


def test_validate_reports_endpoint_mismatch_fact(family_spec):
    g = family_spec.graph
    bad = Fact(Path("person", ("parents", "w")), Path("person", ()))
    report = validate_specification(Specification(graph=g, facts=(bad,)))
    assert any("end at different types" in msg for msg in report)


def test_validate_reports_duplicates_and_empty_labels():
    g = Graph(
        types=(TypeNode("x", "a thing"), TypeNode("x", "a thing"), TypeNode("y", "")),
        aspects=(Aspect("f", "x", "y", "maps to"), Aspect("f", "x", "y", "maps to")),
    )
    report = validate_specification(Specification(graph=g))
    assert report == [
        "duplicate declaration of 'x'",
        "type 'y' has an empty label",
        "duplicate declaration of 'f'",
    ]


def test_validate_reports_an_aspect_named_Id():
    g = Graph(types=(TypeNode("x", "a thing"),), aspects=(Aspect("Id", "x", "x", "has"),))
    assert validate_specification(Specification(graph=g)) == [
        "'Id' names the key column and cannot be an aspect id"
    ]


def test_validate_reports_sketch_declarations_after_the_graph_and_facts():
    from olog.core import ProductDecl, validate_decls
    from olog.dsl import parse_olog, print_olog

    g = Graph(
        types=(TypeNode("a", "an a"), TypeNode("b", "a b")),
        aspects=(Aspect("f", "b", "a", "maps to"),),  # runs the wrong way
    )
    spec = Specification(graph=g, sketch=(ProductDecl("a", (("b", "f"),)),))
    assert validate_specification(spec) == validate_decls(spec) == [
        "ProductDecl on 'a': projection 'f' must run a -> b, it runs b -> a"
    ]
    assert parse_olog(print_olog(spec))[0] is None
    unnamed = Specification(graph=g, sketch=spec.sketch, name="no name")
    assert validate_specification(unnamed)[1:] == validate_decls(spec)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_paths_resolve_a_duplicate_aspect_id_as_the_index_does(data):
    g = data.draw(sts.graphs(max_aspects=4))
    ids = [t.id for t in g.types]
    twins = tuple(
        Aspect(data.draw(st.sampled_from([a.id for a in g.aspects])),
               data.draw(st.sampled_from(ids)), data.draw(st.sampled_from(ids)), "twin")
        for _ in range(data.draw(st.integers(1, 3)))
    ) if g.aspects else ()
    g = Graph(types=g.types, aspects=g.aspects + twins)
    for p in enumerate_paths(g, 3):
        path_target(g, p)
    assert {a for out in g.aspects_from.values() for a in out} == set(g.aspect_by_id.values())


def _any_paths(g: Graph):
    """A path of ``g``, or a sequence that starts at no type, names an
    unknown aspect or breaks the chain."""
    return st.one_of(sts.paths_in(g, 3), st.builds(
        Path,
        st.sampled_from([t.id for t in g.types] + ["x"]),
        st.lists(st.sampled_from([a.id for a in g.aspects] + ["nope"]), max_size=3).map(tuple),
    ))


def _any_decls(g: Graph):
    tid = st.sampled_from([t.id for t in g.types] + ["x"])
    aid = st.sampled_from([a.id for a in g.aspects] + ["nope"])
    leg, two = st.tuples(tid, aid), st.tuples(_any_paths(g), _any_paths(g))
    return st.one_of(
        st.builds(ProductDecl, tid, st.lists(leg, max_size=3).map(tuple)),
        st.builds(CoproductDecl, tid, st.lists(leg, max_size=3).map(tuple)),
        st.builds(PullbackDecl, tid, leg, leg, two),
        st.builds(PushoutDecl, tid, leg, leg, two),
        st.builds(ImageDecl, tid, _any_paths(g), aid, aid),
    )


def _renamed(messages: list[str]) -> list[str]:
    return [m.replace("path mentions unknown aspect", "unknown aspect") for m in messages]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_path_checkers_match_the_walks_before_path_target(data):
    # One walk per path gives the verdicts and messages of the checkers that
    # walked each path up to six times, with the one renamed wording.
    g, tgt = (data.draw(st.one_of(sts.graphs(), sts.cyclic_graphs())) for _ in range(2))
    p = data.draw(_any_paths(g))
    errs = _renamed(path_errors(g, p))
    if errs:
        with pytest.raises(OlogError, match=re.escape(errs[0])):
            path_target(g, p)
    else:
        assert path_target(g, p) == path_target_by_errors(g, p)
    fact = Fact(p, data.draw(_any_paths(g)))
    assert fact_errors(g, fact) == _renamed(fact_errors_by_walks(g, fact))
    decl = data.draw(_any_decls(g))
    assert decl_errors(g, decl) == _renamed(decl_errors_by_walks(g, decl))
    h = GraphMorphism(
        src=g, tgt=tgt,
        type_map=data.draw(st.dictionaries(st.sampled_from([t.id for t in g.types] + ["x"]),
                                           st.sampled_from([t.id for t in tgt.types] + ["x"]))),
        aspect_map=data.draw(st.dictionaries(st.sampled_from([a.id for a in g.aspects] + ["nope"]),
                                             _any_paths(tgt))),
    )
    assert morphism_errors(h) == _renamed(morphism_errors_by_walks(h))


def test_enumerate_paths_skips_a_shadowed_aspect():
    g = Graph(
        types=(TypeNode("a", "an a"), TypeNode("b", "a b")),
        aspects=(Aspect("f", "a", "a", "loops"), Aspect("f", "b", "a", "maps to")),
    )
    assert Path("b", ("f",)) not in enumerate_paths(g, 2)
    assert g.aspects_from == {"a": (g.aspect_by_id["f"],), "b": ()}


def test_validate_reports_what_the_text_format_cannot_write():
    g = Graph(
        types=(TypeNode("a", 'a "quoted" thing'), TypeNode("of", "an of"),
               TypeNode("b c", "a b\x85c")),
        aspects=(Aspect("f", "a", "of", "is\r"), Aspect("g", "a", "of", "")),
    )
    assert validate_specification(Specification(graph=g, name="my olog")) == [
        "name 'my olog' is not an ASCII identifier",
        "type 'a' has a label with a quote or a line break",
        "type id 'b c' is not an ASCII identifier",
        "type 'b c' has a label with a quote or a line break",
        "'of' is reserved and cannot be an id",
        "aspect 'f' has a label with a quote or a line break",
    ]


# Ids, labels and modifiers that break each declaration rule, beside good ones.
ID_POOL = ("a", "b", "c", "of", "type", "id", "Id", "b c", "é", "", "1a", "_")
LABEL_POOL = ("a thing", "an a", "", 'a "quoted" thing', "a\nb")
MODIFIER_POOL = ("injective", "surjective", "bogus")


def _quoted(problems: list[str]) -> set[str]:
    return {name for msg in problems for name in re.findall(r"'([^']*)'", msg)}


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=4), st.from_regex(_ID, fullmatch=True)))
def test_id_errors_accepts_the_ids_the_reader_tokenizes(ident):
    tokenized = re.fullmatch(_ID, ident) is not None and ident not in KEYWORDS
    assert (id_errors("type", ident, ()) == []) == tokenized


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validate_specification_agrees_with_the_checker_by_kinds(data):
    ids, labels = st.sampled_from(ID_POOL), st.sampled_from(LABEL_POOL)
    types = data.draw(st.lists(st.builds(TypeNode, ids, labels), max_size=4))
    aspects = data.draw(st.lists(st.builds(
        Aspect, ids, ids, ids, labels, st.frozensets(st.sampled_from(MODIFIER_POOL)),
    ), max_size=4))
    name = data.draw(st.sampled_from(("olog", "my olog")))
    spec = Specification(graph=Graph(tuple(types), tuple(aspects)), name=name)
    old, new = validate_specification_by_kinds(spec), validate_specification(spec)
    assert (old == []) == (new == [])
    assert _quoted(old) <= _quoted(new)


@st.composite
def specs_with_one_fault(draw):
    """A valid spec and one declaration the text format can write but not accept."""
    base = draw(sts.specs_on(draw(sts.graphs(max_types=3, max_aspects=3))))
    g = base.graph
    type_ids = [t.id for t in g.types]
    t0, t1 = draw(st.sampled_from(type_ids)), draw(st.sampled_from(type_ids))
    taken = draw(st.sampled_from(type_ids + [a.id for a in g.aspects]))
    word = draw(st.sampled_from(sorted(KEYWORDS)))
    fault = draw(st.sampled_from((
        TypeNode(word, "a reserved word"),
        Aspect(word, t0, t1, "is reserved"),
        Aspect("Id", t0, t1, "keys"),
        TypeNode(taken, "a second thing"),
        Aspect(taken, t0, t1, "is declared twice"),
        TypeNode("U", ""),
        Aspect("g", t0, "Z", "runs nowhere"),
        Aspect("g", "Z", t1, "comes from nowhere"),
    )))
    if isinstance(fault, TypeNode):
        g = Graph(g.types + (fault,), g.aspects)
    else:
        g = Graph(g.types, g.aspects + (fault,))
    return Specification(graph=g, facts=base.facts)


@settings(max_examples=300, deadline=None)
@given(specs_with_one_fault())
def test_the_reader_words_a_fault_as_validate_specification_does(spec):
    from olog.dsl import ERROR, parse_olog, print_olog

    [problem] = validate_specification(spec)
    read, diags = parse_olog(print_olog(spec))
    assert read is None
    assert next(d.message for d in diags if d.severity == ERROR) == problem


def test_relation_to_span_star():
    g = Graph(
        types=(
            TypeNode("person", "a person"),
            TypeNode("bus", "a bus"),
            TypeNode("city", "a city"),
        )
    )
    g2, apex = relation_to_span(
        g, "Go", [("agent", "person"), ("inst", "bus"), ("dest", "city")]
    )
    assert apex.label == "Go"
    out = g2.aspects_from[apex.id]
    assert sorted(a.label for a in out) == ["agent", "dest", "inst"]
    assert {a.tgt for a in out} == {"person", "bus", "city"}
    assert validate_specification(Specification(graph=g2)) == []


def test_relation_to_span_single_leg_and_triple():
    g = Graph(types=(TypeNode("paper", "a paper"), TypeNode("author", "an author"),
                     TypeNode("journal", "a journal")))
    g1, apex = relation_to_span(g, "Cited", [("what", "paper")])
    assert len(g1.aspects_from[apex.id]) == 1
    g2, apex2 = relation_to_span(
        g1, "Published", [("p", "paper"), ("a", "author"), ("j", "journal")]
    )
    assert len(g2.aspects_from[apex2.id]) == 3
    assert validate_specification(Specification(graph=g2)) == []


def test_relation_to_span_errors():
    g = Graph(types=(TypeNode("x", "a thing"),))
    with pytest.raises(OlogError):
        relation_to_span(g, "R", [])
    with pytest.raises(OlogError):
        relation_to_span(g, "R", [("leg", "nope")])


def test_relation_to_span_uniquifies_ids():
    g = Graph(types=(TypeNode("Go", "a go"),))
    g2, apex = relation_to_span(g, "Go", [("Go", "Go")])
    assert apex.id != "Go"
    assert validate_specification(Specification(graph=g2)) == []


def test_relation_to_span_ids_print_and_parse_back():
    from olog import dsl

    g = Graph(types=(TypeNode("a", "an a"),))
    g2, apex = relation_to_span(g, "café", [("rôle", "a"), ("x²", "a"), ("2x", "a")])
    assert apex.id == "caf_"
    assert [a.id for a in g2.aspects] == ["_2x", "r_le", "x_"]
    spec = Specification(graph=g2)
    assert dsl.parse_olog(dsl.print_olog(spec))[0] == spec


def test_relation_to_span_ids_are_not_keywords():
    from olog import dsl

    g = Graph(types=(TypeNode("a", "an a"),))
    g2, apex = relation_to_span(g, "of", [("id", "a")])
    assert (apex.id, g2.aspects[0].id) == ("of_2", "id_2")
    spec = Specification(graph=g2)
    assert dsl.parse_olog(dsl.print_olog(spec))[0] == spec


def test_relation_to_span_does_not_name_an_aspect_Id():
    g = Graph(types=(TypeNode("a", "an a"),))
    g2, apex = relation_to_span(g, "R", [("Id", "a")])
    assert g2.aspects[0].id == "Id_2"
    assert validate_specification(Specification(graph=g2)) == []


@given(data=st.data(), graph=sts.graphs())
@settings(max_examples=40, deadline=None)
def test_relation_to_span_always_validates(data, graph):
    type_ids = [t.id for t in graph.types]
    n = data.draw(st.integers(1, 3))
    legs = [
        (data.draw(st.sampled_from(["r1", "r2", "has"])), data.draw(st.sampled_from(type_ids)))
        for _ in range(n)
    ]
    g2, _ = relation_to_span(graph, "Rel", legs)
    assert validate_specification(Specification(graph=g2)) == []


def test_enumerate_paths_deterministic_and_bounded(employee_spec):
    g = employee_spec.graph
    once = enumerate_paths(g, 3)
    again = enumerate_paths(g, 3)
    assert once == again
    assert all(len(p) <= 3 for p in once)
    assert identity_path("employee") in once
    assert Path("employee", ("manager", "manager", "works_in")) in once
    # every enumerated path is well formed
    for p in once:
        path_target(g, p)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_specification_facts_are_sorted_and_deduplicated(data):
    g = data.draw(sts.graphs())
    facts = data.draw(st.lists(sts.parallel_facts(g), max_size=8))
    again = data.draw(st.lists(st.sampled_from(facts), max_size=4)) if facts else []
    given_facts = data.draw(st.permutations(facts + again))
    want = tuple(sorted(set(facts)))
    assert Specification(graph=g, facts=tuple(given_facts)).facts == want
    assert Specification(graph=g, facts=given_facts).facts == want
    # Facts already strictly increasing are kept as given.
    assert Specification(graph=g, facts=want).facts is want


# --- Path and Fact are named tuples -------------------------------------------

# Few sources and edge ids, so random pairs share prefixes and often collide.
_paths = st.builds(
    lambda source, edges: (source, tuple(edges)),
    st.sampled_from(["a", "b", "ab"]),
    st.lists(st.sampled_from(["f", "g", "fg"]), max_size=3),
)


def _both(fields):
    """A path as the library builds it and as the old dataclass built it."""
    return Path(*fields), DataclassPath(*fields)


def _same_values(new_pair, old_pair):
    (x, y), (ox, oy) = new_pair, old_pair
    for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne):
        assert op(x, y) == op(ox, oy), op
    assert repr(x) == repr(ox).replace("Dataclass", "", 3)
    assert hash(x) == hash(ox)
    assert bool(x) is bool(ox)


@settings(max_examples=300, deadline=None)
@given(_paths, _paths)
def test_path_behaves_as_the_dataclass_did(p, q):
    (x, ox), (y, oy) = _both(p), _both(q)
    _same_values((x, y), (ox, oy))
    assert len(x) == len(ox) and x.is_identity is ox.is_identity


@settings(max_examples=300, deadline=None)
@given(st.tuples(_paths, _paths), st.tuples(_paths, _paths))
def test_fact_behaves_as_the_dataclass_did(f, g):
    def both(sides):
        new, old = zip(*map(_both, sides))
        return Fact(*new), DataclassFact(*old)

    (x, ox), (y, oy) = both(f), both(g)
    _same_values((x, y), (ox, oy))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_paths, _paths), max_size=12))
def test_sorted_order_is_the_dataclass_order(sides):
    paths = [p for pair in sides for p in pair]
    old_paths = sorted(DataclassPath(*p) for p in paths)
    assert sorted(map(Path._make, paths)) == [astuple(p) for p in old_paths]
    facts = sorted(Fact(Path(*p), Path(*q)) for p, q in sides)
    old = sorted(DataclassFact(DataclassPath(*p), DataclassPath(*q)) for p, q in sides)
    assert facts == [astuple(f) for f in old]


def test_path_and_fact_are_plain_tuples_of_their_fields():
    p, q = Path("a", ("f",)), Path("a")
    assert p == ("a", ("f",)) and Fact(p, q) == (("a", ("f",)), ("a", ()))
    source, edges = p
    assert (source, edges) == ("a", ("f",))
    assert json.dumps(p) == '["a", ["f"]]'
    assert json.dumps(Fact(p, q)) == '[["a", ["f"]], ["a", []]]'
    assert (len(p), len(q), bool(q)) == (1, 0, False)
    assert Path._make(["a", ()]) == q and q._replace(edges=("f", "g")) == ("a", ("f", "g"))
    with pytest.raises(TypeError):
        Path._make(["a"])
    for cls in (Path, Fact):
        assert cls.__hash__ is tuple.__hash__
        assert cls.__eq__ is tuple.__eq__
        assert cls.__lt__ is tuple.__lt__


def test_no_isinstance_tuple_check_in_the_library():
    """A Path or Fact is a tuple: no library code may tell them apart that way."""
    found = []
    for source in sorted(FsPath(olog.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("isinstance", "issubclass")
                and len(node.args) == 2
                and any(
                    isinstance(n, ast.Name) and n.id == "tuple"
                    for n in ast.walk(node.args[1])
                )
            ):
                found.append(f"{source.name}:{node.lineno}")
    assert found == []


# --- union-find ----------------------------------------------------------------

_tags = st.tuples(st.sampled_from("abc"), st.sampled_from(["x", "y", "z_", "_w"]))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_union_find_matches_tag_partition(data):
    tags = data.draw(st.lists(_tags, min_size=1, max_size=12, unique=True))
    unions = data.draw(
        st.lists(st.tuples(st.sampled_from(tags), st.sampled_from(tags)), max_size=15)
    )
    uf, oracle = UnionFind(tags), TagPartition()
    for t in tags:
        oracle.add(t)
    for a, b in unions:
        uf.union(a, b)
        oracle.union(a, b)
    classes = uf.classes()
    assert {frozenset(m) for m in classes.values()} == oracle.classes()
    for root, members in classes.items():
        assert root == min(members)
        assert all(uf.find(m) == root for m in members)
