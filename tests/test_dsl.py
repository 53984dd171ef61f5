from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path as FsPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import olog
from olog import dsl
from olog.cli import main as olog_main
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
    decl_errors,
    format_fact,
    identity_path,
    validate_decls,
    validate_specification,
)
from olog.entail import consequence
from olog.errors import OlogError
from olog.instances import key_diagram
from olog.sketch import check_all

from . import strategies as sts
from .conftest import (
    FIXTURES,
    load_olog,
    write_overflowing_node,
    write_overflowing_system,
)
from .oracles import DataclassParseDiagnostic, DataclassSourceSpan, tokenize_by_groups

FAMILY_TEXT = (FIXTURES / "family.olog").read_text()
FAMILY = load_olog("family.olog")


def errors(diags):
    return [d for d in diags if d.severity == dsl.ERROR]


def test_parse_family_shape():
    spec, diags = dsl.parse_olog(FAMILY_TEXT, "family.olog")
    assert spec is not None and not errors(diags)
    assert len(spec.graph.types) == 3
    assert len(spec.graph.aspects) == 3
    assert spec.facts == (
        Fact(Path("person", ("parents", "w")), Path("person", ("mother",))),
    )


def test_parse_empty_file():
    spec, diags = dsl.parse_olog("", "empty.olog")
    assert spec == Specification(Graph())
    assert diags == []
    spec2, diags2 = dsl.parse_olog("# only a comment\n\n", "empty.olog")
    assert spec2 == Specification(Graph())
    assert diags2 == []


def test_parse_ill_typed_fact_has_span():
    text = FAMILY_TEXT.replace("fact parents;w = mother", "fact parents;w = parents")
    spec, diags = dsl.parse_olog(text, "family.olog")
    assert spec is None
    errs = errors(diags)
    assert errs and "different types" in errs[0].message
    assert errs[0].at.file == "family.olog"
    assert errs[0].at.line == 9  # the fact line
    assert errs[0].at.column >= 8


def test_parse_unknown_aspect_span():
    text = FAMILY_TEXT.replace("parents;w", "parents;nope")
    spec, diags = dsl.parse_olog(text, "family.olog")
    assert spec is None
    (err,) = [d for d in errors(diags) if "nope" in d.message]
    assert err.at.line == 9
    assert err.at.column > 8


def test_parse_duplicate_declaration():
    text = FAMILY_TEXT.replace(
        'type woman "a woman"', 'type woman "a woman"\n  type woman "a woman"'
    )
    spec, diags = dsl.parse_olog(text)
    assert spec is None
    assert any("duplicate declaration" in d.message for d in errors(diags))


def test_parse_reserved_word_rejected():
    text = 'olog X {\n  type fact "a fact"\n}\n'
    spec, diags = dsl.parse_olog(text)
    assert spec is None
    assert any("reserved" in d.message for d in errors(diags))


def test_aspect_id_Id_is_rejected_at_its_column():
    # `Id` is the key column of every table, so no aspect may take it.
    text = 'olog X {\n  type a "an a"\n  aspect Id : a -> a "has"\n}\n'
    spec, diags = dsl.parse_olog(text, "x.olog")
    assert spec is None
    assert [str(d) for d in diags] == [
        "x.olog:3:10 - error: 'Id' names the key column and cannot be an aspect id"
    ]
    spec, diags = dsl.parse_olog(text.replace("aspect Id", "aspect id_"), "x.olog")
    assert spec is not None and not errors(diags)


def test_empty_type_label_is_error():
    spec, diags = dsl.parse_olog('olog X {\n  type x ""\n}\n')
    assert spec is None
    assert any("empty label" in d.message for d in errors(diags))


def test_parsed_specs_pass_structural_validation():
    from olog.core import validate_specification

    for name in ROUNDTRIP_FIXTURES:
        assert validate_specification(load_olog(name)) == []


def test_style_lints_are_warnings_not_errors():
    text = 'olog X {\n  type x "the thing."\n}\n'
    spec, diags = dsl.parse_olog(text)
    assert spec is not None
    assert [d.message for d in diags if d.severity == dsl.WARNING] == [
        "type 'x': style lint label-article",
        "type 'x': style lint label-punctuation",
    ]


def test_a_parsed_type_node_is_its_id_and_label():
    spec, _ = dsl.parse_olog('olog X {\n  type x "the thing."\n}\n')
    (node,) = spec.graph.types
    assert node == TypeNode("x", "the thing.")
    assert repr(node) == repr(TypeNode("x", "the thing.")) == "TypeNode(id='x', label='the thing.')"


def test_missing_square_fact_is_lint():
    text = (
        "olog X {\n"
        '  type a "an apex"\n'
        '  type b "a left leg"\n'
        '  type c "a right leg"\n'
        '  type d "a base"\n'
        '  aspect pb : a -> b "has"\n'
        '  aspect pc : a -> c "has"\n'
        '  aspect f : b -> d "has"\n'
        '  aspect g : c -> d "has"\n'
        "  pullback a = b *_d c via (f,g) legs (pb,pc)\n"
        "}\n"
    )
    spec, diags = dsl.parse_olog(text)
    assert spec is not None
    assert any(
        d.severity == dsl.WARNING and "commuting fact" in d.message for d in diags
    )


PUSHOUT_AND_IMAGE = (
    "olog X {\n"
    '  type a "an apex"\n'
    '  type b "a left leg"\n'
    '  type c "a right leg"\n'
    '  type i "an image"\n'
    '  type p "a gluing"\n'
    '  aspect f : a -> b "has"\n'
    '  aspect g : a -> c "has"\n'
    '  aspect ib : b -> p "is"\n'
    '  aspect ic : c -> p "is"\n'
    '  aspect m : i -> b "is" injective\n'
    '  aspect s : a -> i "has" surjective\n'
    "{facts}"
    "  image i of f via (s,m)\n"
    "  pushout p = b +_a c via (ib,ic) span (f,g)\n"
    "}\n"
)


def test_pushout_and_image_print_and_parse_back():
    bare = PUSHOUT_AND_IMAGE.replace("{facts}", "")
    spec, diags = dsl.parse_olog(bare, "x.olog")
    assert spec is not None and not errors(diags)
    assert spec.sketch == (
        ImageDecl("i", Path("a", ("f",)), "s", "m"),
        PushoutDecl("p", ("b", "ib"), ("c", "ic"), (Path("a", ("f",)), Path("a", ("g",)))),
    )
    assert [str(d) for d in diags] == [
        "x.olog:1:1 - warning: ImageDecl on 'i': commuting fact f = s;m is not declared",
        "x.olog:1:1 - warning: PushoutDecl on 'p': commuting fact f;ib = g;ic is not declared",
    ]
    # Printing gives back the text it was parsed from.
    assert dsl.print_olog(spec) == bare

    squares = PUSHOUT_AND_IMAGE.replace("{facts}", "  fact f = s;m\n  fact f;ib = g;ic\n")
    spec, diags = dsl.parse_olog(squares, "x.olog")
    assert spec is not None and diags == []
    assert dsl.print_olog(spec) == squares


SQUARE_TEXT = (
    "olog X {\n"
    '  type a "an apex"\n'
    '  type b "a left leg"\n'
    '  type c "a right leg"\n'
    '  type d "a base"\n'
    '  aspect pb : a -> b "has"\n'
    '  aspect pc : a -> c "has"\n'
    '  aspect f : b -> d "has"\n'
    '  aspect g : c -> d "has"\n'
    "  fact pb;f = pc;g\n"
    "  {decl}\n"  # line 11
    "}\n"
)


def test_one_aspect_for_two_parts_is_reported_at_its_declaration():
    text = (
        "olog Dup {\n"
        '  type a "an a"\n'
        '  type c "a c"\n'
        '  type p "a p"\n'
        '  aspect e : a -> a "is"\n'
        '  aspect i : a -> c "is"\n'
        '  aspect q : p -> a "has"\n'
        "  product p = a * a via (q,q)\n"  # line 8
        "  pullback p = a *_a a via (e,e) legs (q,q)\n"
        "  coproduct c = a + a via (i,i)\n"
        "  pushout c = a +_a a via (i,i) span (e,e)\n"
        "  image a of e via (e,e)\n"
        "}\n"
    )
    spec, diags = dsl.parse_olog(text, "dup.olog")
    assert spec is None
    assert [str(d) for d in errors(diags)] == [
        f"dup.olog:{line}:3 - error: {ctx}: aspect '{aid}' is used for more than one part"
        for line, ctx, aid in (
            (8, "ProductDecl on 'p'", "q"),
            (9, "PullbackDecl on 'p'", "q"),
            (10, "CoproductDecl on 'c'", "i"),
            (11, "PushoutDecl on 'c'", "i"),
            (12, "ImageDecl on 'a'", "e"),
        )
    ]


def test_sketch_problem_is_reported_at_its_declaration():
    text = SQUARE_TEXT.replace("{decl}", "product a = b * c via (pc,pb)")
    spec, diags = dsl.parse_olog(text, "x.olog")
    assert spec is None
    assert [str(d) for d in errors(diags)] == [
        "x.olog:11:3 - error: ProductDecl on 'a': projection 'pc' must run a -> b, "
        "it runs a -> c",
        "x.olog:11:3 - error: ProductDecl on 'a': projection 'pb' must run a -> c, "
        "it runs a -> b",
    ]


def test_pullback_reports_both_misplaced_cospan_paths():
    text = SQUARE_TEXT.replace("{decl}", "pullback a = b *_d c via (g,f) legs (pb,pc)")
    spec, diags = dsl.parse_olog(text, "x.olog")
    assert spec is None
    assert [str(d) for d in errors(diags)] == [
        "x.olog:11:3 - error: PullbackDecl on 'a': path g must start at 'b'",
        "x.olog:11:3 - error: PullbackDecl on 'a': path f must start at 'c'",
    ]


def test_written_apex_must_match_the_paths():
    # The declarations keep no apex token, so only the parser can check it.
    text = SQUARE_TEXT.replace("{decl}", "pullback a = b *_c c via (f,g) legs (pb,pc)")
    spec, diags = dsl.parse_olog(text, "x.olog")
    assert spec is None
    assert [str(d) for d in errors(diags)] == [
        "x.olog:11:29 - error: cospan paths must end at 'c'"
    ]
    decl = PullbackDecl("a", ("b", "pb"), ("c", "pc"), (Path("b", ("f",)), Path("c", ("g",))))
    square, _ = dsl.parse_olog(SQUARE_TEXT.replace("{decl}", ""))
    assert decl_errors(square.graph, decl) == []

    text = SQUARE_TEXT.replace("{decl}", "pushout d = b +_c c via (f,g) span (pb,pc)")
    spec, diags = dsl.parse_olog(text, "x.olog")
    assert spec is None
    assert [str(d) for d in errors(diags)] == [
        "x.olog:11:39 - error: span paths must start at 'c'"
    ]


FIXTURE_TEXTS = [p.read_text(encoding="utf-8") for p in sorted(FIXTURES.glob("*.olog"))]


@given(sts.mutated_olog_texts(FIXTURE_TEXTS))
@settings(max_examples=300, deadline=None)
def test_accepted_mutants_pass_structural_validation(text):
    # What the parser accepts needs no second structural check.
    spec, diags = dsl.parse_olog(text)
    if spec is not None:
        assert not errors(diags)
        assert validate_specification(spec) == []
        assert validate_decls(spec) == []


def test_parse_totality_on_garbage():
    for text in ("}{", "olog {", "olog X {", "olog X { type }", "olog X {}\nextra",
                 "\x00\x01??", "olog X {\n  aspect a : -> b\n}"):
        spec, diags = dsl.parse_olog(text)
        assert spec is None or not errors(diags)


@given(st.sampled_from(["olog", "omap", "fact"]), st.text(max_size=120))
@settings(max_examples=150, deadline=None)
def test_parse_never_crashes(reader, text):
    if reader == "olog":
        dsl.parse_olog(text)
    elif reader == "omap":
        dsl.parse_morphism(text, FAMILY, FAMILY)
    else:
        try:
            dsl.parse_fact_text(text, FAMILY.graph)
        except OlogError:
            pass


def test_unicode_labels_roundtrip():
    text = 'olog X {\n  type x "a möbius band"\n}\n'
    spec, diags = dsl.parse_olog(text)
    assert spec is not None
    assert dsl.parse_olog(dsl.print_olog(spec))[0] == spec


# --- printing ----------------------------------------------------------------

ROUNDTRIP_FIXTURES = [
    "family.olog", "employee.olog", "factorial.olog", "metric.olog", "duck.olog",
    "community.olog", "portal.olog", "ground.olog", "left.olog",
]


@pytest.mark.parametrize("name", ROUNDTRIP_FIXTURES)
def test_print_parse_print_stable(name):
    spec = load_olog(name)
    once = dsl.print_olog(spec)
    spec2, diags = dsl.parse_olog(once, name)
    assert spec2 is not None and not errors(diags)
    assert spec2 == spec
    assert dsl.print_olog(spec2) == once


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_printed_facts_are_each_fact_formatted(data):
    # The facts of a consequence share paths: a class of m paths gives m * m.
    g = data.draw(st.one_of(sts.graphs(), sts.cyclic_graphs()))
    spec = data.draw(sts.specs_on(g, max_facts=3, max_len=2))
    derived = consequence(spec, data.draw(st.integers(2, 3)))
    spec = Specification(graph=g, facts=spec.facts + derived)
    lines = dsl.print_olog(spec).splitlines()
    assert [line for line in lines if line.startswith("  fact ")] == [
        f"  fact {format_fact(f)}" for f in spec.facts
    ]


def test_print_canonicalizes_unordered_input():
    shuffled = (
        "olog Family {\n"
        '  type woman "a woman"\n'
        '  type person "a person"\n'
        '  type pair "a pair (w,m) where w is a woman and m is a man"\n'
        '  aspect w : pair -> woman "yields, via the value of w, a woman"\n'
        '  aspect parents : person -> pair "has as parents"\n'
        '  aspect mother : person -> woman "has as mother"\n'
        "  fact parents;w = mother\n"
        "}\n"
    )
    spec, _ = dsl.parse_olog(shuffled)
    canonical = load_olog("family.olog")
    assert spec == canonical
    assert dsl.print_olog(spec) == dsl.print_olog(canonical)
    lines = dsl.print_olog(spec).splitlines()
    assert lines.index('  type pair "a pair (w,m) where w is a woman and m is a man"') < \
        lines.index('  type person "a person"')


UNIT_GRAPH = Graph(types=(TypeNode("E", "an impossibility"), TypeNode("U", "a unit")))


@pytest.mark.parametrize(
    "decl, kind, data",
    [
        (ProductDecl("U", ()), "singleton", {"U": ["()"]}),
        (CoproductDecl("E", ()), "empty", {"E": []}),
    ],
)
def test_nullary_product_and_coproduct_round_trip(decl, kind, data):
    """A code-built nullary product prints as ``singleton`` and parses back equal."""
    spec = Specification(graph=UNIT_GRAPH, sketch=(decl,), name="Unit")
    text = dsl.print_olog(spec)
    assert f"  {kind} {decl.target}\n" in text
    reparsed, diags = dsl.parse_olog(text)
    assert reparsed == spec and not errors(diags)
    d = key_diagram(data, {})
    results = [(r.kind, r.passed) for r in check_all(d, spec)]
    assert results == [(r.kind, r.passed) for r in check_all(d, reparsed)]
    assert results == [(kind, True)]


def test_parsed_singleton_is_the_nullary_product():
    text = 'olog Unit {\n  type U "a unit"\n  empty U\n  singleton U\n}\n'
    parsed, _ = dsl.parse_olog(text)
    assert parsed.sketch == (CoproductDecl("U", ()), ProductDecl("U", ()))
    both = Specification(
        graph=parsed.graph, sketch=parsed.sketch + (ProductDecl("U", ()),), name="Unit"
    )
    assert dsl.print_olog(both) == text


_PRINT_TWO_PRODUCTS = """
from olog import dsl
from olog.core import Aspect, Graph, ProductDecl, Specification, TypeNode

graph = Graph(
    types=(TypeNode("a", "an a"), TypeNode("b", "a b"), TypeNode("c", "a c")),
    aspects=(Aspect("p", "a", "b", "has"), Aspect("q", "a", "c", "has"),
             Aspect("r", "a", "b", "has")),
)
sketch = (ProductDecl("a", (("b", "r"), ("c", "q"))), ProductDecl("a", (("b", "p"), ("c", "q"))))
print(dsl.print_olog(Specification(graph=graph, sketch=sketch)), end="")
"""


def test_sketch_print_order_does_not_depend_on_the_hash_seed():
    """Two declarations of one kind on one target print in one order."""
    src = str(FsPath(olog.__file__).resolve().parents[1])
    printed = set()
    for seed in ("0", "1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-c", _PRINT_TWO_PRODUCTS],
            env=env, capture_output=True, text=True, check=True,
        )
        printed.add(run.stdout)
    assert len(printed) == 1
    lines = printed.pop().splitlines()
    assert lines[-3:-1] == [
        "  product a = b * c via (p,q)",
        "  product a = b * c via (r,q)",
    ]


def test_factorial_print_matches_golden(factorial_spec):
    golden = (FIXTURES / "golden" / "factorial_print.olog").read_text()
    assert dsl.print_olog(factorial_spec) == golden


@given(data=st.data(), graph=sts.graphs(max_types=3, max_aspects=4))
@settings(max_examples=40, deadline=None)
def test_print_parse_print_random(data, graph):
    spec = data.draw(sts.specs_on(graph, max_facts=2, max_len=2))
    once = dsl.print_olog(spec)
    reparsed, diags = dsl.parse_olog(once)
    assert reparsed is not None and not errors(diags)
    assert dsl.print_olog(reparsed) == once


# Id characters, what the text format treats specially, and any character.
_CHARS = st.one_of(
    st.sampled_from("abc_1"), st.sampled_from('"#\n\r\x0b\x85\u2028 ;(),:=-é'), st.characters()
)
_IDS = st.one_of(st.sampled_from(["a", "of", "id", "olog"]), st.text(_CHARS, max_size=3))
_LABELS = st.one_of(st.sampled_from(["", "a thing"]), st.text(_CHARS, max_size=4))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_what_validation_accepts_prints_and_parses_back(data):
    # One id, label or name, at a drawn position, comes from the wide
    # strategies; with a position past the last there is none.
    odd = data.draw(st.integers(0, 13))
    position = itertools.count()

    def pick(plain, wide):
        return data.draw(wide) if next(position) == odd else plain

    types = tuple(
        TypeNode(pick(f"T{i}", _IDS), pick("a thing", _LABELS))
        for i in range(data.draw(st.integers(1, 3)))
    )
    ends = st.sampled_from([t.id for t in types])
    aspects = tuple(
        Aspect(pick(f"e{i}", _IDS), data.draw(ends), data.draw(ends), pick("has", _LABELS))
        for i in range(data.draw(st.integers(0, 3)))
    )
    graph = Graph(types, aspects)
    facts = ()
    if len(graph.aspect_by_id) == len(aspects):  # paths need unique aspect ids
        facts = tuple(data.draw(st.lists(sts.parallel_facts(graph), max_size=2)))
    sketch = ()
    if aspects and data.draw(st.booleans()):
        parts = data.draw(st.lists(st.sampled_from(aspects), max_size=2))
        target = parts[0].src if parts else data.draw(ends)
        sketch = (ProductDecl(target, tuple((a.tgt, a.id) for a in parts)),)
    spec = Specification(graph, facts, sketch, name=pick("X", _IDS))
    if validate_specification(spec) or validate_decls(spec):
        return
    assert dsl.parse_olog(dsl.print_olog(spec))[0] == spec


# --- fact text ---------------------------------------------------------------


def test_parse_fact_text(family_spec):
    f = dsl.parse_fact_text("parents;w = mother", family_spec.graph)
    assert f == Fact(Path("person", ("parents", "w")), Path("person", ("mother",)))
    f2 = dsl.parse_fact_text("id(person) = id(person)", family_spec.graph)
    assert f2 == Fact(identity_path("person"), identity_path("person"))
    with pytest.raises(OlogError):
        dsl.parse_fact_text("parents = mother", family_spec.graph)
    with pytest.raises(OlogError):
        dsl.parse_fact_text("parents;w", family_spec.graph)


# --- morphism files ----------------------------------------------------------


def test_parse_identity_morphism(family_spec):
    text = "\n".join(
        [f"type {t.id} => {t.id}" for t in family_spec.graph.types]
        + [f"aspect {a.id} => {a.id}" for a in family_spec.graph.aspects]
    )
    h, diags = dsl.parse_morphism(text, family_spec, family_spec)
    assert h is not None and not errors(diags)
    from olog.flow import identity_morphism

    assert h == identity_morphism(family_spec.graph)


def test_parse_w_portal_link():
    community = load_olog("community.olog")
    portal = load_olog("portal.olog")
    text = (FIXTURES / "community_to_portal.omap").read_text()
    h, diags = dsl.parse_morphism(text, community, portal, "community_to_portal.omap")
    assert h is not None and not errors(diags)
    assert h.type_map["event"] == "event"
    assert h.aspect_map["going"] == Path("event", ("going",))


def test_parse_morphism_endpoint_error(family_spec, employee_spec):
    text = (
        "type person => employee\ntype pair => department\ntype woman => string\n"
        "aspect parents => works_in\naspect mother => first_name\n"
        "aspect w => name;name\n"  # name;name does not compose
    )
    h, diags = dsl.parse_morphism(text, family_spec, employee_spec)
    assert h is None
    assert any("name" in d.message for d in errors(diags))


def test_parse_morphism_two_step_image_wrong_target(family_spec, employee_spec):
    text = (
        "type person => employee\ntype pair => employee\ntype woman => department\n"
        "aspect parents => manager\n"
        "aspect mother => manager;works_in\n"
        "aspect w => manager;first_name\n"  # ends at string, mapped target is department
    )
    h, diags = dsl.parse_morphism(text, family_spec, employee_spec)
    assert h is None
    assert any("ends at" in d.message for d in errors(diags))


def test_parse_morphism_unmapped(family_spec):
    h, diags = dsl.parse_morphism("type person => person", family_spec, family_spec)
    assert h is None
    assert any("is not mapped" in d.message for d in errors(diags))


def test_parse_morphism_identity_image(family_spec):
    text = (
        "type person => person\ntype pair => person\ntype woman => person\n"
        "aspect parents => id(person)\naspect mother => id(person)\n"
        "aspect w => id(person)\n"
    )
    h, diags = dsl.parse_morphism(text, family_spec, family_spec)
    assert h is not None and not errors(diags)
    assert h.aspect_map["parents"].is_identity


def test_unexpected_characters_are_reported_at_their_column(family_spec):
    text = "\n".join(
        [f"type {t.id} => {t.id}" for t in family_spec.graph.types]
        + [f"aspect {a.id} => {a.id}" for a in family_spec.graph.aspects]
    ).replace("aspect w => w", "aspect w ! => w")
    h, diags = dsl.parse_morphism(text, family_spec, family_spec, "m.omap")
    assert h is None
    lineno = text.splitlines().index("aspect w ! => w") + 1
    assert [str(d) for d in errors(diags)] == [
        f"m.omap:{lineno}:10 - error: unexpected character '!'"
    ]
    with pytest.raises(OlogError, match=r"^bad fact: unexpected character '!'$"):
        dsl.parse_fact_text("parents;w ! = mother", family_spec.graph)


def test_an_unterminated_quote_does_not_hide_a_comment(family_spec):
    # A `#` outside a string starts a comment, even after a stray `"`: the
    # comment is not read as code, so only the quote and what it leaves
    # missing are reported.
    spec, diags = dsl.parse_olog('olog X {\n  type a "label # note\n}\n', "x.olog")
    assert spec is None
    assert [str(d) for d in diags] == [
        "x.olog:2:10 - error: unexpected character '\"'",
        "x.olog:2:11 - error: expected a quoted label, found 'label'",
    ]
    with pytest.raises(OlogError, match="""^bad fact: unexpected character '"'; """
                       "expected '=', found end of line$"):
        dsl.parse_fact_text('"parents;w # = mother', family_spec.graph)
    with pytest.raises(OlogError, match="""^bad fact: unexpected character '"'$"""):
        dsl.parse_fact_text('parents;w = "mother # x', family_spec.graph)


def test_a_hash_in_a_string_is_not_a_comment_and_a_fact_comment_ends_the_text(family_spec):
    spec, diags = dsl.parse_olog('olog X {  # X\n  type a "a # sign"  # a\n}\n')
    assert diags == [] and spec.graph.types[0].label == "a # sign"
    # A fact is one line however many newlines it holds.
    fact = dsl.parse_fact_text("parents;w = mother # note\nmother", family_spec.graph)
    assert fact == family_spec.facts[0]


# Letters, digits, a non-ASCII letter, every blank and line break the
# tokenizer treats apart, comment and string marks, and every operator.
_TOKEN_PIECES = (
    *"aZ_09é", *" \t\r\n\f\v", "#", '"',
    "->", "=>", "*_", "+_", *"{}();,=:*+-><",
)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_TOKEN_PIECES), max_size=30).map("".join), st.integers(1, 9))
def test_tokenizer_matches_the_group_oracle(text, lineno):
    new, old = dsl._Parser("t.olog"), dsl._Parser("t.olog")
    toks = new.tokenize(text, lineno)
    want, line_span = tokenize_by_groups(old, text, lineno)
    # A token's kind is read from its text, and its span from a scan of the line.
    kinds = ["STRING" if t[0] == '"' else "IDENT" if t.isidentifier() else "OP"
             for t in toks[:-1]]
    spans = [new.span(k) for k in range(len(toks))]
    assert list(zip(kinds, toks, spans)) == [tuple(t) for t in want]
    assert (toks[-1], spans[-1]) == (dsl.END, line_span)
    assert new.diagnostics == old.diagnostics


# --- system files ------------------------------------------------------------


def test_parse_w_system():
    sysm, diags = dsl.parse_system(FIXTURES / "w.osys", bound=6)
    assert sysm is not None and not errors(diags)
    assert len(sysm.shape.nodes) == 5
    assert len(sysm.shape.edges) == 4
    assert sysm.shape.final_nodes() == ("portal", "portal2")


def test_parse_span_system():
    sysm, diags = dsl.parse_system(FIXTURES / "span.osys", bound=4)
    assert sysm is not None and not errors(diags)
    assert len(sysm.shape.nodes) == 3
    assert len(sysm.shape.edges) == 2


# An id on each line with `{}` holds the character under test there.
_SYSTEMS_WITH_AN_ID = [
    "node c{} = family.olog\n",
    "node a = family.olog\nedge e{} : a -> a = id.omap\n",
    "node a = family.olog\nnode b{} = family.olog\nedge e : a -> b{} = id.omap\n",
]


@pytest.mark.parametrize("template", _SYSTEMS_WITH_AN_ID, ids=["node", "edge", "endpoint"])
@pytest.mark.parametrize("char", ["ö", "é", "²", "\u0663"])  # the last is ARABIC-INDIC DIGIT THREE
def test_system_ids_are_ascii(tmp_path, template, char):
    import shutil

    shutil.copy(FIXTURES / "family.olog", tmp_path / "family.olog")
    (tmp_path / "id.omap").write_text(
        "type pair => pair\ntype person => person\ntype woman => woman\n"
        "aspect mother => mother\naspect parents => parents\naspect w => w\n"
    )
    bad = tmp_path / "bad.osys"
    bad.write_text(template.replace("{}", char), encoding="utf-8")
    sysm, diags = dsl.parse_system(bad, bound=3)
    assert sysm is None
    assert [str(d) for d in errors(diags)] == [
        f"{bad}:{lineno}:1 - error: expected 'node <n> = <file>' or "
        "'edge <e> : <n> -> <m> = <file>'"
        for lineno, line in enumerate(template.splitlines(), start=1)
        if "{}" in line
    ]
    # Spelled in ASCII the system is read, and what `olog fuse` writes reads back.
    good = tmp_path / "good.osys"
    good.write_text(template.replace("{}", "x"))
    assert olog_main(["--bound", "3", "fuse", str(good), "-o", str(tmp_path / "f.olog")]) == 0
    fused, diags = dsl.parse_olog((tmp_path / "f.olog").read_text(encoding="utf-8"))
    assert fused is not None and not errors(diags)


def test_parse_single_node_system(tmp_path):
    import shutil

    shutil.copy(FIXTURES / "family.olog", tmp_path / "family.olog")
    (tmp_path / "solo.osys").write_text("node only = family.olog\n")
    sysm, diags = dsl.parse_system(tmp_path / "solo.osys", bound=3)
    assert sysm is not None and not errors(diags)
    assert sysm.shape.nodes == ("only",)
    assert sysm.shape.edges == ()


def test_parse_system_missing_file(tmp_path):
    (tmp_path / "bad.osys").write_text("node x = nowhere.olog\n")
    sysm, diags = dsl.parse_system(tmp_path / "bad.osys", bound=3)
    assert sysm is None
    assert any("cannot read" in d.message for d in errors(diags))


def test_parse_system_rejects_non_preserving_edge(tmp_path):
    import shutil

    for f in ("left.olog", "right.olog", "ground_to_left.omap"):
        shutil.copy(FIXTURES / f, tmp_path / f)
    # Use left (which declares a fact) as the source of a link into right
    # (which declares none): the fact is not preserved.
    (tmp_path / "l2r.omap").write_text(
        "type end1 => end2\ntype mid1 => mid2\ntype start1 => start2\n"
        "aspect u1 => u2\naspect v1 => v2\naspect w1 => w2\n"
    )
    (tmp_path / "bad.osys").write_text(
        "node l = left.olog\nnode r = right.olog\nedge e : l -> r = l2r.omap\n"
    )
    sysm, diags = dsl.parse_system(tmp_path / "bad.osys", bound=3)
    assert sysm is None
    assert any("not preserved" in d.message for d in errors(diags))


def test_parse_system_reports_a_node_whose_facts_overflow(tmp_path):
    alone, pair = write_overflowing_node(tmp_path)
    overflow = "declared fact 'f;f;f = f' has a side longer than bound 2"
    sysm, diags = dsl.parse_system(alone, bound=2)
    assert sysm is None
    assert [str(d) for d in errors(diags)] == [f"{alone}:1:1 - error: node 'a': {overflow}"]
    # The edge into node b is skipped: b's own overflow is reported as b's.
    sysm, diags = dsl.parse_system(pair, bound=2)
    assert sysm is None
    assert [str(d) for d in errors(diags)] == [
        f"{pair}:1:1 - error: node 'a': {overflow}",
        f"{pair}:1:1 - error: node 'b': {overflow}",
    ]
    assert dsl.parse_system(pair, bound=3)[0] is not None


def test_parse_system_reports_an_overflowing_edge(tmp_path):
    osys = write_overflowing_system(tmp_path)
    sysm, diags = dsl.parse_system(osys, bound=4)
    assert sysm is None
    assert [str(d) for d in errors(diags)] == [
        f"{osys}:1:1 - error: edge 'e': translated fact 'g;h;g;h;g;h = g;h' "
        "has a side longer than bound 4"
    ]


# --- one malformed line per error branch of the readers ----------------------

_MALFORMED_BASE = """olog T {{
  type a "an a"
  type b "a b"
  aspect f : a -> b "has"
  aspect g : a -> b "has"
  {}
}}
"""

# (reader, text, ["line:column message", ...]): an `olog` text is one line of
# the body above (line 6), a `header` text the first line of an olog whose
# second line is `}`, an `omap` text the whole morphism file from the olog
# above to itself, and an `osys` text the whole system file, whose nodes are
# the olog above and whose edges map it to itself.
_MALFORMED = [
    ('olog', 'fact id = f', ["6:11 expected '(', found '='"]),
    ('olog', 'fact id(', ['6:1 expected a type id, found end of line']),
    ('olog', 'fact id(a = f', ["6:13 expected ')', found '='"]),
    ('olog', 'fact f = g;', ['6:1 expected an aspect id, found end of line']),
    ('olog', 'type', ['6:1 expected a type id, found end of line']),
    ('olog', 'type c', ['6:1 expected a quoted label, found end of line']),
    ('olog', 'aspect', ['6:1 expected an aspect id, found end of line']),
    ('olog', 'aspect h', ["6:1 expected ':', found end of line"]),
    ('olog', 'aspect h :', ['6:1 expected a source type id, found end of line']),
    ('olog', 'aspect h : a', ["6:1 expected '->', found end of line"]),
    ('olog', 'aspect h : a ->', ['6:1 expected a target type id, found end of line']),
    ('olog', 'product p = a * b via f,g', [
        "6:25 expected '(', found 'f'",
        "6:26 unexpected trailing ','",
        '6:1 product needs one projection per factor',
    ]),
    ('olog', 'product p = a * b via ()', ['6:1 product needs one projection per factor']),
    ('olog', 'product p = a * b via (f,"x")', [
        '6:28 expected an aspect id, found \'"x"\'',
        "6:31 unexpected trailing ')'",
        '6:1 product needs one projection per factor',
    ]),
    ('olog', 'product p = a * b via (f,g', [
        "6:1 expected ',' or ')', found end of line",
        '6:1 product needs one projection per factor',
    ]),
    ('olog', 'product p = a * b via (f;g)', [
        "6:27 expected ',' or ')', found ';'",
        "6:28 unexpected trailing 'g'",
        '6:1 product needs one projection per factor',
    ]),
    ('olog', 'pullback p = a *_b a via', ["6:1 expected '(', found end of line"]),
    ('olog', 'pullback p = a *_b a via (', ['6:1 expected a path, found end of line']),
    ('olog', 'pullback p = a *_b a via (f', ["6:1 expected ',', found end of line"]),
    ('olog', 'pullback p = a *_b a via (f,', ['6:1 expected a path, found end of line']),
    ('olog', 'pullback p = a *_b a via (f,g', ["6:1 expected ')', found end of line"]),
    ('olog', 'product p =', ['6:1 expected a factor type id, found end of line']),
    ('olog', 'product p = a *', ['6:1 expected a factor type id, found end of line']),
    ('olog', 'product p = a * b', ["6:1 expected 'via', found end of line"]),
    ('olog', 'product p = a * b via (f)', ['6:1 product needs one projection per factor']),
    ('olog', 'coproduct p = a +', ['6:1 expected a summand type id, found end of line']),
    ('olog', 'coproduct p = a + b', ["6:1 expected 'via', found end of line"]),
    ('olog', 'coproduct p = a + b via (f)', ['6:1 coproduct needs one inclusion per summand']),
    ('olog', 'pullback p = a', ["6:1 expected '*_', found end of line"]),
    ('olog', 'pullback p = a *_b', ['6:1 expected a leg type id, found end of line']),
    ('olog', 'pullback p = a *_b a', ["6:1 expected 'via', found end of line"]),
    ('olog', 'pullback p = a *_b a via (f,g) legs (f)', [
        '6:1 pullback needs exactly two leg projections',
    ]),
    ('olog', 'pullback p = a *_b a via (f,g)', ["6:1 expected 'legs', found end of line"]),
    ('olog', 'pushout p = b +_a', ['6:1 expected a leg type id, found end of line']),
    ('olog', 'pushout p = b +_a b', ["6:1 expected 'via', found end of line"]),
    ('olog', 'pushout p = b +_a b via (f)', ['6:1 pushout needs exactly two inclusions']),
    ('olog', 'pushout p = b +_a b via (f,g)', ["6:1 expected 'span', found end of line"]),
    ('olog', 'pushout p = b +_a b via (f,g) span (f', ["6:1 expected ',', found end of line"]),
    ('olog', 'singleton', ['6:1 expected a type id, found end of line']),
    ('olog', 'empty', ['6:1 expected a type id, found end of line']),
    ('olog', 'image p f via (f,g)', ["6:11 expected 'of', found 'f'"]),
    ('olog', 'image p of', ['6:1 expected a path, found end of line']),
    ('olog', 'image p of f', ["6:1 expected 'via', found end of line"]),
    ('olog', 'image p of f via (f,g,g)', ["6:1 image needs exactly two aspects in 'via'"]),
    ('olog', 'product p a * b via (f,g)', ["6:13 expected '=', found 'a'"]),
    ('olog', 'type c x y', [
        "6:10 expected a quoted label, found 'x'",
        "6:12 unexpected trailing 'y'",
    ]),
    ('olog', 'singleton "x" y', [
        '6:13 expected a type id, found \'"x"\'',
        "6:17 unexpected trailing 'y'",
    ]),
    ('olog', 'pullback p = a *_b a via (f,g) legs (f;g)', [
        "6:41 expected ',' or ')', found ';'",
        "6:42 unexpected trailing 'g'",
        '6:1 pullback needs exactly two leg projections',
    ]),
    ('olog', 'image p of f via (f;g)', [
        "6:22 expected ',' or ')', found ';'",
        "6:23 unexpected trailing 'g'",
    ]),
    ('olog', 'pushout p = b +_a b via (f;g) span (f,g)', [
        "6:29 expected ',' or ')', found ';'",
        '6:1 pushout needs exactly two inclusions',
    ]),
    ('olog', 'pushout p = b +_a b via (f,g) span (f g)', [
        "6:41 expected ',', found 'g'",
        "6:42 unexpected trailing ')'",
    ]),
    ('header', 'olog', [
        '1:1 expected the olog name, found end of line',
        "1:1 expected '{', found end of line",
    ]),
    ('header', 'olog {', [
        "1:6 expected the olog name, found '{'",
        "1:1 expected '{', found end of line",
    ]),
    ('header', 'olog T', ["1:1 expected '{', found end of line"]),
    ('omap', 'type a => "x" y', [
        '1:11 expected a target type id, found \'"x"\'',
        "1:15 unexpected trailing 'y'",
    ]),
    ('omap', 'aspect f => id(a b', ["1:18 expected ')', found 'b'"]),
    ('omap', 'type a =>', ['1:1 expected a target type id, found end of line']),
    ('omap', 'aspect f =>', ['1:1 expected a path, found end of line']),
    ('omap', 'type a => a\ntype a => a', ["2:6 type 'a' mapped twice"]),
    ('omap', 'aspect f => f\naspect f => f', ["2:8 aspect 'f' mapped twice"]),
    ('osys', 'node n = a.olog\nnode n = a.olog', ["2:1 node 'n' declared twice"]),
    ('osys', 'node n = a.olog\nedge e : n -> n = id.omap\nedge e : n -> n = id.omap', [
        "3:1 edge 'e' declared twice",
    ]),
    # The aspect stays declared, so the fact that names it adds no error.
    ('olog', 'aspect h : a -> b "maps" wibble\nfact h = h', [
        "6:28 unexpected 'wibble' after aspect",
    ]),
    ('omap', 'aspect ghost => f', ["1:8 unknown source aspect 'ghost'"]),
    # A diagnostic's column comes from a second scan of its line: a dropped
    # character shifts the tokens after it, a comment is not the end of the
    # line, and each path step is found by its place in the line.
    ('olog', 'fact f;! g = g', [
        "6:10 unexpected character '!'",
        "6:8 aspect 'g' starts at 'a' but the path has reached 'b'",
    ]),
    ('olog', 'aspect ! h : a -> z "x"', [
        "6:10 unexpected character '!'",
        "6:12 aspect 'h': unknown target type 'z'",
    ]),
    ('olog', 'aspect h : a -> # b', ['6:1 expected a target type id, found end of line']),
    ('olog', 'fact f = id(c)', ["6:15 unknown type 'c'"]),
    ('olog', 'pushout p = b +_b b via (f,g) span (f,h)', ["6:41 unknown aspect 'h'"]),
    ('olog', 'pullback p = a *_a a via (f,g) legs (f,g)', [
        "6:29 cospan paths must end at 'a'",
        "6:3 PullbackDecl on 'p': unknown type 'p'",
    ]),
    ('omap', 'aspect f => ! g;h', [
        "1:13 unexpected character '!'",
        "1:17 unknown aspect 'h'",
    ]),
    ('omap', 'aspect f => f, # g', ["1:14 unexpected trailing ','"]),
    ('osys', 'node n = a.olog\nedge e : n -> m = id.omap', [
        "2:1 edge 'e' references an undeclared node",
    ]),
]


@pytest.mark.parametrize(("reader", "text", "expected"), _MALFORMED)
def test_each_malformed_line_reports_its_diagnostics(
    tmp_path, monkeypatch, reader, text, expected
):
    olog_text = _MALFORMED_BASE.format("")
    if reader == "olog":
        file, diags = "t.olog", dsl.parse_olog(_MALFORMED_BASE.format(text), "t.olog")[1]
    elif reader == "header":
        file, diags = "t.olog", dsl.parse_olog(text + "\n}\n", "t.olog")[1]
    elif reader == "omap":
        spec = dsl.parse_olog(olog_text)[0]
        file, diags = "t.omap", dsl.parse_morphism(text + "\n", spec, spec, "t.omap")[1]
    else:
        monkeypatch.chdir(tmp_path)
        FsPath("a.olog").write_text(olog_text)
        FsPath("id.omap").write_text("type a => a\ntype b => b\naspect f => f\naspect g => g\n")
        FsPath("t.osys").write_text(text + "\n")
        file, diags = "t.osys", dsl.parse_system("t.osys")[1]
    assert [str(d) for d in diags] == [
        f"{file}:{at} - error: {message}" for at, message in (e.split(" ", 1) for e in expected)
    ]


# --- SourceSpan and ParseDiagnostic are named tuples -------------------------

_spans = st.tuples(st.sampled_from(["a.olog", "<fact>"]), st.integers(1, 3), st.integers(1, 3))


@settings(max_examples=200, deadline=None)
@given(_spans, _spans, st.sampled_from([dsl.ERROR, dsl.WARNING]), st.sampled_from(["m", "n"]))
def test_span_and_diagnostic_behave_as_the_dataclasses_did(s, t, severity, message):
    x, y = dsl.SourceSpan(*s), dsl.SourceSpan(*t)
    ox, oy = DataclassSourceSpan(*s), DataclassSourceSpan(*t)
    dx, odx = dsl.ParseDiagnostic(severity, message, x), DataclassParseDiagnostic(severity, message, ox)
    for new, old in ((x, ox), (dx, odx)):
        assert str(new) == str(old)
        assert repr(new) == repr(old).replace("Dataclass", "")
        assert hash(new) == hash(old)
    assert (x == y, x != y) == (ox == oy, ox != oy)
    assert (x.file, x.line, x.column) == (ox.file, ox.line, ox.column)
    assert (dx.severity, dx.message, dx.at) == (odx.severity, odx.message, x)


def test_span_and_diagnostic_are_plain_tuples_of_their_fields():
    at = dsl.SourceSpan("a.olog", 2, 5)
    d = dsl.ParseDiagnostic(dsl.ERROR, "m", at)
    assert str(at) == "a.olog:2:5" and str(d) == "a.olog:2:5 - error: m"
    assert at == ("a.olog", 2, 5) and d == ("error", "m", ("a.olog", 2, 5))
    assert {d, dsl.ParseDiagnostic("error", "m", dsl.SourceSpan("a.olog", 2, 5))} == {d}
    for cls in (dsl.SourceSpan, dsl.ParseDiagnostic):
        assert cls.__hash__ is tuple.__hash__
        assert cls.__eq__ is tuple.__eq__
