"""The row layer works a column at a time: each function against its row loop.

``load_tables`` reads a clean table by columns, facts and pullback
instances evaluate whole key columns, the sketch checks decide their
verdicts by set sizes, and ``emit_inserts`` quotes whole columns. The
oracles in ``tests/oracles.py`` are the same functions one row or one key
at a time. Diagrams, problem lists (order included), reports, first
witnesses and text must be the same; an error must be of the same type
(which bad key is met first may differ).
"""

from __future__ import annotations

import csv
import random
import tempfile
from pathlib import Path as FsPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olog.core import Aspect, Graph, Path, Specification, TypeNode
from olog.errors import EvaluationError
from olog.flow import pullback_instances
from olog.instances import KeyDiagram, eval_column, eval_path, load_tables, satisfies_fact
from olog.sketch import (
    CoproductDecl,
    ImageDecl,
    PushoutDecl,
    check_decl,
    check_injective,
    synthesize,
)
from olog.sqlgen import emit_inserts

from . import strategies as sts
from .oracles import (
    check_coproduct_by_keys,
    check_image_by_keys,
    check_injective_by_keys,
    check_limit_by_keys,
    check_pushout_by_keys,
    emit_inserts_by_rows,
    load_tables_by_rows,
    pullback_instances_by_keys,
    satisfies_fact_by_keys,
    synthesize_by_keys,
)
from .test_classes import outcome
from .worlds import KINDS, random_world

SETTINGS = settings(max_examples=200, deadline=None)


def same(got, want):
    """Equal results, or errors of the same type."""
    if got[0] == "raised" or want[0] == "raised":
        return got[:2] == want[:2]
    return got == want


def insertion_orders(d: KeyDiagram) -> dict:
    return {aid: list(f.items()) for aid, f in d.funcs.items()}


# --- load_tables ----------------------------------------------------------------

# ``a`` has two aspects, ``b`` one and ``c`` none; ``g`` may be optional.
TABLES = Specification(
    graph=Graph(
        types=(TypeNode("a", "an a"), TypeNode("b", "a b"), TypeNode("c", "a c")),
        aspects=(
            Aspect("f", "a", "b", "has"),
            Aspect("g", "a", "a", "has"),
            Aspect("h", "b", "c", "has"),
        ),
    ),
)
HEADERS = {"a": ["Id", "f", "g"], "b": ["Id", "h"], "c": ["Id"]}
CELLS = ["a0", "a1", "b0", "b1", "c0", "c'1", "", "x,y", 'q"']


@st.composite
def rows(draw, width: int):
    """Rows of one table: clean ones (distinct, non-empty Ids and cells, blank
    rows between them) or anything at all."""
    if draw(st.booleans()):
        ids = draw(st.lists(st.sampled_from(CELLS[:6]), unique=True, max_size=5))
        out = [[i] + [draw(st.sampled_from(CELLS[:6])) for _ in range(width - 1)] for i in ids]
        for _ in range(draw(st.integers(0, 2))):
            out.insert(draw(st.integers(0, len(out))), draw(st.sampled_from([[], [""] * width])))
        return out
    cell = st.sampled_from(CELLS)
    return draw(st.lists(st.lists(cell, min_size=0, max_size=width + 1), max_size=6))


@st.composite
def table_dirs(draw):
    """Each table: missing, with a drawn header, or with its expected header
    (or the header without ``g``) and drawn rows. Returns the tables and the
    optional types and aspects to load with."""
    optional_aspects = frozenset(draw(st.sampled_from([(), ("g",)])))
    optional_types = frozenset(draw(st.sampled_from([(), ("c",)])))
    tables = {}
    for t, header in HEADERS.items():
        kind = draw(st.sampled_from(["rows", "rows", "rows", "missing", "header", "empty"]))
        if kind == "missing":
            continue
        if kind == "empty":
            tables[t] = []
            continue
        if kind == "header":
            header = draw(st.lists(st.sampled_from(["Id", "f", "g", "h", ""]), max_size=3))
        elif t == "a" and optional_aspects and draw(st.booleans()):
            header = ["Id", "f"]
        tables[t] = [header] + draw(rows(len(header)))
    return tables, optional_types, optional_aspects


def write_tables(directory: FsPath, tables: dict) -> None:
    for t, content in tables.items():
        with open(directory / f"{t}.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(content)


@SETTINGS
@given(table_dirs())
def test_load_tables_matches_the_row_loop(drawn):
    tables, optional_types, optional_aspects = drawn
    with tempfile.TemporaryDirectory() as tmp:
        write_tables(FsPath(tmp), tables)
        got = load_tables(tmp, TABLES, optional_types, optional_aspects)
        want = load_tables_by_rows(tmp, TABLES, optional_types, optional_aspects)
    assert got == want
    assert insertion_orders(got[0]) == insertion_orders(want[0])


def test_load_tables_reads_faulty_rows_one_at_a_time(tmp_path):
    write_tables(tmp_path, {
        "a": [["Id", "f", "g"], ["a0", "b0", "a1"], ["", "", ""], ["a1", "b9", "a0"],
              ["a0", "b0", "a0"], ["", "b0", "a0"], ["a2", "", "a0"], ["a3", "b0"]],
        "b": [["Id", "h"], ["b0", "c0"], []],
        "c": [["Id"], ["c0"]],
    })
    d, problems = load_tables(tmp_path, TABLES)
    assert problems == [
        "table 'a.csv': duplicate Id 'a0'",
        "table 'a.csv' row 6: empty Id cell",
        "table 'a.csv' row 'a2': empty cell in column 'f'",
        "table 'a.csv' row 8: expected 3 cells, got 2",
        "dangling key: table 'a.csv' row 'a1' column 'f' refers to 'b9', not an Id of 'b.csv'",
    ]
    assert d.sets["a"] == {"a0", "a1", "a2"} and d.sets["b"] == {"b0"}
    assert (d, problems) == load_tables_by_rows(tmp_path, TABLES)


# --- path evaluation and facts --------------------------------------------------


def test_eval_path_is_eval_column_at_one_key(family_data):
    p = Path("person", ("parents", "w"))
    keys = sorted(family_data.sets["person"])
    assert eval_column(family_data, p, keys) == [eval_path(family_data, p, k) for k in keys]
    assert eval_column(family_data, Path("person"), keys) == keys
    assert eval_column(family_data, p, []) == []


def test_eval_column_names_the_first_key_outside_the_source(family_data):
    with pytest.raises(EvaluationError, match="key 'nobody' is not in the set of 'person'"):
        eval_column(family_data, Path("person", ("mother",)), ["Cain", "nobody", "nemo"])


@SETTINGS
@given(st.data())
def test_satisfies_fact_matches_the_key_loop(data):
    g = data.draw(sts.graphs())
    d = data.draw(sts.key_diagrams_on(g))
    for fact in data.draw(sts.specs_on(g, max_facts=3, max_len=3)).facts:
        assert satisfies_fact(d, fact) == satisfies_fact_by_keys(d, fact)


@SETTINGS
@given(st.data())
def test_pullback_instances_matches_the_key_loop(data):
    h = data.draw(sts.morphisms())
    d2 = data.draw(sts.key_diagrams_on(h.tgt))
    got, want = outcome(pullback_instances, h, d2), outcome(pullback_instances_by_keys, h, d2)
    assert same(got, want)
    if got[0] == "ok":
        assert insertion_orders(got[1]) == insertion_orders(want[1])


# --- INSERT statements ------------------------------------------------------------


@SETTINGS
@given(st.data())
def test_emit_inserts_matches_the_row_loop(data):
    g = data.draw(sts.graphs())
    d = data.draw(sts.key_diagrams_on(g))
    # Rename every key with a drawn prefix of quotes, commas and parentheses.
    prefix = st.text(alphabet="'\", ()x", max_size=3)
    names = {k: data.draw(prefix) + k for ks in d.sets.values() for k in ks}
    d = KeyDiagram(
        sets={t: frozenset(names[k] for k in ks) for t, ks in d.sets.items()},
        funcs={a: {names[k]: names[v] for k, v in f.items()} for a, f in d.funcs.items()},
    )
    spec = Specification(graph=g)
    assert emit_inserts(spec, d) == emit_inserts_by_rows(spec, d)


# --- sketch checks ------------------------------------------------------------------


def mutated(rng: random.Random, g: Graph, d: KeyDiagram) -> KeyDiagram:
    """``d`` with one to three edits: a function value redirected within its
    target set, a key that no function reaches dropped, or a key twinned
    with the same images as an existing one. The result is still closed."""
    sets = {t: set(ks) for t, ks in d.sets.items()}
    funcs = {a: dict(f) for a, f in d.funcs.items()}
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(["redirect", "redirect", "drop", "twin"])
        if op == "redirect":
            choices = [a for a in g.aspects if funcs.get(a.id) and sets.get(a.tgt)]
            if choices:
                a = rng.choice(choices)
                k = rng.choice(sorted(funcs[a.id]))
                funcs[a.id][k] = rng.choice(sorted(sets[a.tgt]))
            continue
        reached = {v for a in g.aspects for v in funcs.get(a.id, {}).values()}
        candidates = sorted(
            (t, k) for t, ks in sets.items() for k in ks if op == "twin" or k not in reached
        )
        if not candidates:
            continue
        t, k = rng.choice(candidates)
        outgoing = [a.id for a in g.aspects if a.src == t and k in funcs.get(a.id, {})]
        if op == "drop":
            sets[t].discard(k)
            for aid in outgoing:
                del funcs[aid][k]
        else:
            twin = f"{k}~{len(sets[t])}"
            sets[t].add(twin)
            for aid in outgoing:
                funcs[aid][twin] = funcs[aid][k]
    return KeyDiagram(sets={t: frozenset(ks) for t, ks in sets.items()}, funcs=funcs)


def check_by_keys(d: KeyDiagram, g: Graph, decl):
    if isinstance(decl, CoproductDecl):
        return check_coproduct_by_keys(d, decl)
    if isinstance(decl, PushoutDecl):
        return check_pushout_by_keys(d, decl)
    if isinstance(decl, ImageDecl):
        return check_image_by_keys(d, g, decl)
    return check_limit_by_keys(d, decl)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_checks_match_the_key_loops_on_mutated_worlds(kind, seed):
    rng = random.Random(seed)
    g, decl, empty = random_world(rng, kind)
    full = synthesize(decl, empty)
    for d in (full, mutated(rng, g, full), mutated(rng, g, full)):
        got = outcome(check_decl, d, g, decl)
        assert same(got, outcome(check_by_keys, d, g, decl))
        for a in g.aspects:
            assert same(
                outcome(check_injective, d, g, a.id),
                outcome(check_injective_by_keys, d, g, a.id),
            )


@pytest.mark.parametrize("kind", KINDS)
@SETTINGS
@given(data=st.data())
def test_checks_match_the_key_loops_on_drawn_diagrams(kind, data):
    # Drawn diagrams are far from valid: many extras, duplicates and
    # identifications at once, not only the few edits of a mutated synthesis.
    g, decl, _ = random_world(random.Random(data.draw(st.integers(0, 2**32 - 1))), kind)
    d = data.draw(sts.key_diagrams_on(g))
    assert same(outcome(check_decl, d, g, decl), outcome(check_by_keys, d, g, decl))


def test_mutated_worlds_fail_with_every_kind_of_witness():
    # The drawn mutations reach each check's failure branches, so the
    # comparison above pins first witnesses and not only verdicts.
    rng = random.Random("witnesses")
    witnesses = set()
    for kind in KINDS:
        for _ in range(200):
            g, decl, empty = random_world(rng, kind)
            result = outcome(check_decl, mutated(rng, g, synthesize(decl, empty)), g, decl)
            if result[0] == "ok" and not result[1].passed:
                witnesses.add((kind, result[1].witness.split(" ")[0]))
    assert {
        ("pullback", "extra"), ("pullback", "duplicated"), ("pullback", "missing"),
        ("product", "duplicated"), ("product", "missing"),
        ("coproduct", "inclusion"), ("coproduct", "target"),
        ("pushout", "identified"), ("pushout", "distinct"), ("pushout", "target"),
        ("image", "target"), ("image", "keys"), ("image", "factorization"),
    } <= witnesses


@pytest.mark.parametrize("kind", KINDS)
def test_synthesize_matches_the_key_loop(kind):
    rng = random.Random(f"synth-{kind}")
    for _ in range(60):
        g, decl, empty = random_world(rng, kind)
        got, want = synthesize(decl, empty), synthesize_by_keys(decl, empty)
        assert got == want
        assert insertion_orders(got) == insertion_orders(want)
