"""Decisions on classes: ``entail.class_table`` and the verdicts read from it.

``entails``, ``spec_leq``, ``is_spec_morphism``, ``validate_system`` and
``olog entail`` compare the states of the table and build no path universe;
``olog entail`` builds only the witness it prints, the root of the fact's
class. ``saturate`` and ``consequence`` read the state of each id of a path
universe from the table; each id's root, the first id of its state, equals
the union loop that closed the universe before, kept as
``oracles.close_by_union_loop``.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path as FsPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olog import core, dsl
from olog.cli import main
from olog.core import Aspect, Fact, Graph, Path, Specification, TypeNode, format_fact, format_path
from olog.entail import ENTAILED, NOT_DERIVABLE, entails, saturate, spec_leq
from olog.errors import BoundExceededError, OlogError
from olog.flow import is_spec_morphism
from olog.system import InformationSystem, validate_system

from . import strategies as sts
from .conftest import FIXTURES, load_olog, roots
from .oracles import close_by_union_loop, representatives, saturate_by_rounds

GENS = ("g0", "g1", "g2")
MONOID = Specification(
    graph=Graph(
        types=(TypeNode("m", "a monoid element"),),
        aspects=tuple(Aspect(g, "m", "m", f"acts by {g}") for g in GENS),
    ),
    facts=tuple(
        Fact(Path("m", (a, b)), Path("m", (b, a))) for i, a in enumerate(GENS) for b in GENS[i + 1:]
    ),
)


def _entail_cli(spec: Specification, fact: Fact, bound: int) -> dict:
    """The JSON verdict of ``olog entail`` on ``spec`` printed to a file."""
    with tempfile.TemporaryDirectory() as work:
        olog = FsPath(work) / "spec.olog"
        olog.write_text(dsl.print_olog(spec), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["--bound", str(bound), "--format", "json", "entail", str(olog),
                         "--fact", format_fact(fact)])
    assert code == 0
    return json.loads(out.getvalue())


def _check_against_round_loop(spec: Specification, queries, bound: int):
    rep = representatives(saturate_by_rounds(spec, bound))
    verdicts = [rep[f.lhs] == rep[f.rhs] for f in queries]
    assert [entails(spec, f, bound) == ENTAILED for f in queries] == verdicts
    assert spec_leq(spec, Specification(graph=spec.graph, facts=tuple(queries)), bound) is all(
        verdicts
    )
    for f, same in zip(queries, verdicts):
        got = _entail_cli(spec, f, bound)
        assert got["status"] == (ENTAILED if same else NOT_DERIVABLE)
        # The witness is the least member of the class, the oracle's first.
        assert got["witness"] == (format_path(rep[f.lhs]) if same else "")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_id_decisions_match_round_loop(data):
    # The specs of test_saturate_matches_round_loop_at_bound_length_facts.
    bound = data.draw(st.integers(1, 4))
    graph = data.draw(sts.cyclic_graphs())
    spec = data.draw(sts.specs_on(graph, max_facts=3, max_len=bound))
    queries = data.draw(st.lists(sts.parallel_facts(graph, max_len=bound), max_size=3))
    _check_against_round_loop(spec, spec.facts + tuple(queries), bound)


def test_id_decisions_match_round_loop_on_monoid():
    words = [("g2", "g1", "g0"), ("g1", "g0", "g2", "g0"), ("g2", "g2", "g0", "g1", "g0")]
    queries = [Fact(Path("m", w), Path("m", w[::-1])) for w in words]
    queries += [Fact(Path("m", ("g1", "g0")), Path("m", ("g0", "g0")))]
    _check_against_round_loop(MONOID, queries, 5)


def _union_loop_roots(spec: Specification, bound: int) -> tuple:
    return close_by_union_loop(spec, bound)[1]


def _outcome(close, spec: Specification, bound: int):
    try:
        return close(Specification(graph=spec.graph, facts=spec.facts), bound)
    except OlogError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_closure_roots_match_union_loop(data):
    bound = data.draw(st.integers(1, 6))
    graph = data.draw(st.one_of(sts.graphs(), sts.cyclic_graphs()))
    spec = data.draw(sts.specs_on(graph, max_len=min(bound, 3)))
    universe, root = close_by_union_loop(spec, bound)
    assert roots(spec, bound) == root
    queries = data.draw(st.lists(sts.parallel_facts(graph, max_len=bound), max_size=3))
    ids = {p: i for i, p in enumerate(universe.paths)}
    for f in queries:
        same = root[ids[f.lhs]] == root[ids[f.rhs]]
        assert (entails(spec, f, bound) == ENTAILED) is same


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.olog")))
def test_closure_roots_match_union_loop_on_fixtures(name):
    spec = load_olog(name)
    for bound in range(1, 7):
        assert _outcome(roots, spec, bound) == _outcome(_union_loop_roots, spec, bound)


def test_decisions_build_no_path_of_the_universe(tmp_path, monkeypatch, capsys):
    sysm, diags = dsl.parse_system(FIXTURES / "w.osys", bound=5)
    assert sysm is not None, [str(d) for d in diags]
    olog = tmp_path / "monoid.olog"
    olog.write_text(dsl.print_olog(MONOID), encoding="utf-8")

    def refuse(self):
        raise AssertionError("the universe's Path list was built")

    def refuse_universe(graph, bound):
        raise AssertionError("a path universe was built")

    monkeypatch.setattr(core.PathUniverse, "paths", property(refuse))
    with pytest.raises(AssertionError, match="Path list"):
        saturate(MONOID, 2)  # the guard holds where paths are output
    monkeypatch.setattr(core, "_number", refuse_universe)
    with pytest.raises(AssertionError, match="path universe"):
        saturate(MONOID, 3)

    def fresh(spec):
        return Specification(graph=spec.graph, facts=spec.facts, name=spec.name)

    fact = Fact(Path("m", ("g2", "g1", "g0")), Path("m", ("g0", "g1", "g2")))
    assert entails(fresh(MONOID), fact, 6) == ENTAILED
    assert spec_leq(fresh(MONOID), MONOID, 6)
    for eid, src, tgt in sysm.shape.edges:
        h = sysm.constraints[eid]
        assert is_spec_morphism(h, sysm.specs[src], fresh(sysm.specs[tgt]), 5) == (True, ())
    specs = {n: fresh(s) for n, s in sysm.specs.items()}
    unchecked = InformationSystem(shape=sysm.shape, specs=specs, constraints=sysm.constraints)
    assert validate_system(unchecked, 5) == []
    argv = ["--bound", "6", "entail", str(olog), "--fact", format_fact(fact)]
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        "g2;g1;g0 = g0;g1;g2: entailed (class representative g0;g1;g2)\n"
    )


def test_entail_past_the_path_budget_is_refused(tmp_path, capsys):
    olog = tmp_path / "monoid.olog"
    olog.write_text(dsl.print_olog(MONOID), encoding="utf-8")
    fact = "g0;g1 = g1;g0"
    assert main(["--bound", "40", "entail", str(olog), "--fact", fact]) == 2
    assert capsys.readouterr().err == (
        "bound 40 gives at least 2391484 paths, more than the path budget of 1000000; "
        "lower the bound\n"
    )
    # One loop has 41 paths up to bound 40, well within the budget.
    loop = Specification(graph=Graph(types=MONOID.graph.types, aspects=MONOID.graph.aspects[:1]))
    olog.write_text(dsl.print_olog(loop), encoding="utf-8")
    assert main(["--bound", "40", "entail", str(olog), "--fact", "g0;g0 = g0;g0"]) == 0


def test_a_bad_declared_fact_is_reported_before_the_budget():
    query = Specification(graph=MONOID.graph, facts=MONOID.facts[:1])
    skew = Fact(Path("m", ("g0",)), Path("m", ("nope",)))
    long = Fact(Path("m", ("g0",) * 41), Path("m", ()))
    for bad, error, message in [
        (skew, OlogError, "declared fact g0 = nope: "),
        (long, BoundExceededError, "declared fact 'g0;.*' has a side longer than bound 40"),
    ]:
        spec = Specification(graph=MONOID.graph, facts=MONOID.facts + (bad,))
        with pytest.raises(error, match=message):
            spec_leq(spec, query, 40)
    with pytest.raises(BoundExceededError, match="more than the path budget"):
        spec_leq(MONOID, query, 40)
