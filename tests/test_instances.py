from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olog.core import Fact, Path, Specification, compose_paths, identity_path
from olog.entail import consequence
from olog.errors import EvaluationError, InstanceLoadError
from olog.instances import (
    eval_path,
    intent,
    key_diagram,
    load_instances,
    load_tables,
    satisfies_fact,
    satisfies_spec,
)

from . import strategies as sts
from .conftest import FIXTURES
from .oracles import enumerate_equations


def test_load_employee_tables(employee_spec, employee_data):
    assert len(employee_data.sets["employee"]) == 3
    assert len(employee_data.sets["department"]) == 2
    assert employee_data.funcs["works_in"]["101"] == "q10"


def test_load_empty_tables(tmp_path, family_spec):
    (tmp_path / "person.csv").write_text("Id,mother,parents\n")
    (tmp_path / "pair.csv").write_text("Id,w\n")
    (tmp_path / "woman.csv").write_text("Id\n")
    d = load_instances(tmp_path, family_spec)
    assert all(not keys for keys in d.sets.values())
    assert satisfies_spec(d, family_spec).satisfied


def test_load_dangling_key(tmp_path, employee_spec):
    import shutil

    for f in (FIXTURES / "data_employee").iterdir():
        shutil.copy(f, tmp_path / f.name)
    text = (tmp_path / "employee.csv").read_text().replace("q10", "zz9")
    (tmp_path / "employee.csv").write_text(text)
    with pytest.raises(InstanceLoadError) as exc:
        load_instances(tmp_path, employee_spec)
    msg = str(exc.value)
    assert "zz9" in msg and "employee.csv" in msg and "works_in" in msg


def test_load_lists_dangling_keys_in_key_order(tmp_path, employee_spec):
    # works_in still hits every department, and the problems follow the
    # sorted row keys, not the file order.
    import shutil

    for f in (FIXTURES / "data_employee").iterdir():
        shutil.copy(f, tmp_path / f.name)
    table = tmp_path / "employee.csv"
    table.write_text(
        table.read_text() + "104,David,Hilbert,103,zz9\n100,David,Hilbert,103,aa1\n"
    )
    _, problems = load_tables(tmp_path, employee_spec)
    assert problems == [
        f"dangling key: table 'employee.csv' row '{k}' column 'works_in' "
        f"refers to '{v}', not an Id of 'department.csv'"
        for k, v in (("100", "aa1"), ("104", "zz9"))
    ]


def test_load_reports_missing_and_malformed(tmp_path, family_spec):
    (tmp_path / "person.csv").write_text("Id,mother\nCain,Eve\n")  # missing column
    (tmp_path / "woman.csv").write_text("Id\nEve\nEve\n")  # duplicate
    with pytest.raises(InstanceLoadError) as exc:
        load_instances(tmp_path, family_spec)
    problems = exc.value.problems
    assert any("missing table 'pair.csv'" in m for m in problems)
    assert any("expected" in m and "person.csv" in m for m in problems)
    assert any("duplicate Id 'Eve'" in m for m in problems)


def test_load_empty_cell(tmp_path, family_spec):
    (tmp_path / "person.csv").write_text('Id,mother,parents\nCain,,"(Eve,Adam)"\n')
    (tmp_path / "pair.csv").write_text('Id,w\n"(Eve,Adam)",Eve\n')
    (tmp_path / "woman.csv").write_text("Id\nEve\n")
    with pytest.raises(InstanceLoadError) as exc:
        load_instances(tmp_path, family_spec)
    assert any("empty cell" in m and "mother" in m for m in exc.value.problems)


def test_eval_paths(family_data, employee_data):
    assert eval_path(family_data, Path("person", ("parents", "w")), "Cain") == "Eve"
    assert eval_path(family_data, identity_path("person"), "Cain") == "Cain"
    assert (
        eval_path(employee_data, Path("employee", ("manager", "works_in")), "101")
        == "q10"
    )


def test_eval_rejects_foreign_key_value(family_data):
    with pytest.raises(EvaluationError):
        eval_path(family_data, Path("person", ("mother",)), "Eve")


def test_satisfies_fact_family(family_spec, family_data):
    fact = family_spec.facts[0]
    check = satisfies_fact(family_data, fact)
    assert check.satisfied


def test_satisfies_fact_counterexample(family_spec):
    d = load_instances(FIXTURES / "data_family_mutated", family_spec)
    check = satisfies_fact(d, family_spec.facts[0])
    assert not check.satisfied
    ce = check.counterexamples[0]
    assert {ce.lhs_result, ce.rhs_result} == {"Steve", "Eve"}
    assert ce.key in ("Abel", "Cain")


def test_satisfies_fact_tautology(family_data):
    p = Path("person", ("parents",))
    assert satisfies_fact(family_data, Fact(p, p)).satisfied


def test_satisfies_spec_employee(employee_spec, employee_data):
    assert satisfies_spec(employee_data, employee_spec).satisfied


def test_satisfies_spec_factorial_true_arithmetic(factorial_spec, factorial_data):
    assert satisfies_spec(factorial_data, factorial_spec).satisfied
    assert factorial_data.funcs["f"]["4"] == "24"


def test_satisfies_spec_factorial_triangle_swap(factorial_spec):
    d = load_instances(FIXTURES / "data_factorial_triangle", factorial_spec)
    assert satisfies_spec(d, factorial_spec).satisfied
    assert d.funcs["f"]["4"] == "10"
    assert d.funcs["omega"]["0"] == "0"


def test_fact_over_empty_source_vacuous(family_spec, tmp_path):
    (tmp_path / "person.csv").write_text("Id,mother,parents\n")
    (tmp_path / "pair.csv").write_text('Id,w\n"(Eve,Adam)",Eve\n')
    (tmp_path / "woman.csv").write_text("Id\nEve\n")
    d = load_instances(tmp_path, family_spec)
    assert satisfies_spec(d, family_spec).satisfied


# --- intent ------------------------------------------------------------------


def test_intent_empty_diagram_is_everything(family_spec):
    g = family_spec.graph
    d = key_diagram({t.id: [] for t in g.types}, {a.id: {} for a in g.aspects})
    assert set(intent(d, g, 2)) == set(enumerate_equations(g, 2))


def test_intent_constant_diagram_is_everything(family_spec):
    g = family_spec.graph
    d = key_diagram(
        {t.id: ["k"] for t in g.types},
        {a.id: {"k": "k"} for a in g.aspects},
    )
    assert set(intent(d, g, 2)) == set(enumerate_equations(g, 2))


def test_intent_family_contains_declared(family_spec, family_data):
    facts = intent(family_data, family_spec.graph, 2)
    assert Fact(Path("person", ("parents", "w")), Path("person", ("mother",))) in facts


def test_intent_containment_characterizes_satisfaction(family_spec, family_data):
    got = set(intent(family_data, family_spec.graph, 2))
    assert satisfies_spec(family_data, family_spec).satisfied
    assert set(family_spec.facts) <= got
    assert Fact(Path("pair", ("w",)), Path("pair", ("w",))) in got


def test_intent_is_closed(family_spec, family_data):
    g = family_spec.graph
    facts = intent(family_data, g, 2)
    as_spec = Specification(graph=g, facts=facts)
    assert set(consequence(as_spec, 2)) == set(facts)


@given(data=st.data(), graph=sts.graphs(max_types=3, max_aspects=4))
@settings(max_examples=40, deadline=None)
def test_eval_distributes_over_composition(data, graph):
    d = data.draw(sts.key_diagrams_on(graph))
    p = data.draw(sts.paths_in(graph, 2))
    from olog.core import path_target

    q = data.draw(sts.paths_in(graph, 2, source=path_target(graph, p)))
    keys = sorted(d.sets.get(p.source, frozenset()))
    if not keys:
        return
    k = keys[0]
    pq = compose_paths(graph, p, q)
    assert eval_path(d, pq, k) == eval_path(d, q, eval_path(d, p, k))


def test_load_rejects_misordered_columns(tmp_path, family_spec):
    (tmp_path / "person.csv").write_text('Id,parents,mother\nCain,"(Eve,Adam)",Eve\n')
    (tmp_path / "pair.csv").write_text('Id,w\n"(Eve,Adam)",Eve\n')
    (tmp_path / "woman.csv").write_text("Id\nEve\n")
    with pytest.raises(InstanceLoadError) as exc:
        load_instances(tmp_path, family_spec)
    assert any("expected" in m and "person.csv" in m for m in exc.value.problems)


def test_equal_key_diagrams_are_equal_and_unhashable():
    a = key_diagram({"t": ["k"]}, {"f": {"k": "k"}})
    b = key_diagram({"t": ["k"]}, {"f": {"k": "k"}})
    assert a == b and a is not b
    with pytest.raises(TypeError):
        hash(a)


def test_unreadable_table_is_one_problem(tmp_path, family_spec):
    for f in (FIXTURES / "data_family").iterdir():
        (tmp_path / f.name).write_bytes(f.read_bytes())
    (tmp_path / "person.csv").write_bytes(b"Id,mother,parents\n\xff,a,b\n")
    d, problems = load_tables(tmp_path, family_spec)
    assert problems == [
        "cannot read table 'person.csv': 'utf-8' codec can't decode byte 0xff "
        "in position 18: invalid start byte"
    ]
    assert d.sets["person"] == frozenset()

    (tmp_path / "person.csv").unlink()
    (tmp_path / "person.csv").mkdir()
    _, problems = load_tables(tmp_path, family_spec)
    assert len(problems) == 1 and problems[0].startswith("cannot read table 'person.csv': ")
