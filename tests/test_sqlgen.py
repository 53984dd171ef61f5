from __future__ import annotations

import re
import sqlite3
from contextlib import closing

import pytest

from olog.core import Aspect, Graph, Specification, TypeNode
from olog.errors import OlogError
from olog.instances import KeyDiagram
from olog.sqlgen import emit_ddl, emit_inserts

from .conftest import FIXTURES, load_data, load_olog
from .oracles import foreign_keys, simulate_foreign_keys

# Every fixture olog with each data set that loads under it.
DATA_SETS = [
    ("duck.olog", "data_duck"),
    ("employee.olog", "data_employee"),
    ("factorial.olog", "data_factorial"),
    ("factorial.olog", "data_factorial_triangle"),
    ("family.olog", "data_family"),
    ("family.olog", "data_family_mutated"),
    ("metric.olog", "data_metric"),
]


def sqlite_commit(con: sqlite3.Connection, ddl: str, inserts: str) -> None:
    """Create the schema and insert the rows in one transaction, with foreign
    keys enforced. The schemas have foreign-key cycles, so the checks are
    deferred to the commit, which raises on a violation."""
    con.execute("PRAGMA foreign_keys=ON")
    con.executescript(ddl)
    con.executescript(f"BEGIN;\nPRAGMA defer_foreign_keys=ON;\n{inserts}COMMIT;\n")


def in_memory_sqlite():
    return closing(sqlite3.connect(":memory:", isolation_level=None))


def test_employee_ddl_matches_golden(employee_spec):
    golden = (FIXTURES / "golden" / "employee.sql").read_text()
    assert emit_ddl(employee_spec) == golden


def test_factorial_ddl_matches_golden(factorial_spec):
    golden = (FIXTURES / "golden" / "factorial.sql").read_text()
    assert emit_ddl(factorial_spec) == golden


def test_employee_columns(employee_spec):
    ddl = emit_ddl(employee_spec)
    table = ddl.split('CREATE TABLE "employee" (')[1].split(");")[0]
    for col in ("first_name", "last_name", "manager", "works_in"):
        assert f'\n    "{col}" VARCHAR(255) NOT NULL' in table


def test_ddl_is_deterministic(metric_spec):
    assert emit_ddl(metric_spec) == emit_ddl(metric_spec)


def test_empty_spec_ddl_is_header_only():
    ddl = emit_ddl(Specification(graph=Graph(), name="Empty"))
    assert "CREATE TABLE" not in ddl
    assert ddl.startswith("-- Schema generated from olog 'Empty'")


def test_one_table_per_type_one_fk_per_aspect(metric_spec):
    ddl = emit_ddl(metric_spec)
    tables = re.findall(r'CREATE TABLE "(\w+)" \(', ddl)
    assert sorted(tables) == sorted(t.id for t in metric_spec.graph.types)
    fks = re.findall(r'FOREIGN KEY \("(\w+)"\) REFERENCES "(\w+)" \("Id"\)', ddl)
    assert len(fks) == len(metric_spec.graph.aspects)
    by_aspect = {a.id: a.tgt for a in metric_spec.graph.aspects}
    for col, ref in fks:
        assert by_aspect[col] == ref


def test_facts_and_sketch_become_comments(factorial_spec):
    ddl = emit_ddl(factorial_spec)
    assert "-- FACT: s;p = id(pos)" in ddl
    assert "-- SKETCH: coproduct nat = pos + zero via (i1,i0)" in ddl


def test_inserts_satisfy_foreign_keys(employee_spec, employee_data):
    sql = emit_ddl(employee_spec) + "\n" + emit_inserts(employee_spec, employee_data)
    assert simulate_foreign_keys(sql) == []


def test_inserts_quote_awkward_values(family_spec, family_data):
    sql = emit_inserts(family_spec, family_data)
    assert "'(Eve,Adam)'" in sql
    full = emit_ddl(family_spec) + "\n" + sql
    assert simulate_foreign_keys(full) == []


def test_fk_simulator_catches_breakage(employee_spec, employee_data):
    sql = emit_ddl(employee_spec) + "\n" + emit_inserts(employee_spec, employee_data)
    broken = sql.replace("VALUES ('q10', 'Sales', '101')", "VALUES ('q10', 'Sales', '999')")
    assert broken != sql
    assert simulate_foreign_keys(broken) == ["department.secretary value '999' missing from employee.Id"]
    assert sum(map(len, foreign_keys(sql).values())) == len(employee_spec.graph.aspects)


@pytest.mark.parametrize("olog_name, data_name", DATA_SETS)
def test_inserts_commit_in_sqlite_with_foreign_keys(olog_name, data_name):
    spec = load_olog(olog_name)
    d = load_data(data_name, spec)
    with in_memory_sqlite() as con:
        sqlite_commit(con, emit_ddl(spec), emit_inserts(spec, d))
        assert con.execute("PRAGMA foreign_keys").fetchone() == (1,)
        assert con.execute("PRAGMA foreign_key_check").fetchall() == []
        for t in spec.graph.types:
            count = con.execute(f"SELECT COUNT(*) FROM {t.id}").fetchone()[0]
            assert count == len(d.sets[t.id])


def test_sqlite_rejects_broken_foreign_key(employee_spec, employee_data):
    inserts = emit_inserts(employee_spec, employee_data)
    broken = inserts.replace("VALUES ('q10', 'Sales', '101')", "VALUES ('q10', 'Sales', '999')")
    assert broken != inserts
    with in_memory_sqlite() as con, pytest.raises(sqlite3.IntegrityError):
        sqlite_commit(con, emit_ddl(employee_spec), broken)


def test_reserved_word_ids_commit_in_sqlite():
    # Every id here is an SQL keyword, which SQLite refuses unquoted.
    g = Graph(
        types=(TypeNode("order", "an order"), TypeNode("group", "a group")),
        aspects=(Aspect("select", "order", "group", "is placed by"),
                 Aspect("table", "group", "group", "sits at")),
    )
    spec = Specification(graph=g)
    d = KeyDiagram(
        sets={"order": frozenset({"o1", "o2"}), "group": frozenset({"g"})},
        funcs={"select": {"o1": "g", "o2": "g"}, "table": {"g": "g"}},
    )
    with in_memory_sqlite() as con:
        sqlite_commit(con, emit_ddl(spec), emit_inserts(spec, d))
        assert con.execute('SELECT "Id", "select" FROM "order" ORDER BY "Id"').fetchall() == [
            ("o1", "g"), ("o2", "g"),
        ]
        assert con.execute("PRAGMA foreign_key_check").fetchall() == []


FOLDED = [
    # Two tables whose names differ only in case.
    ((TypeNode("Employee", "an employee"), TypeNode("employee", "a clerk")), (),
     "types 'Employee' and 'employee'"),
    # An aspect column beside the key column "Id".
    ((TypeNode("person", "a person"),), (Aspect("ID", "person", "person", "has as twin"),),
     "type 'person': columns 'Id' and 'ID'"),
    # Two aspect columns of one table.
    ((TypeNode("person", "a person"),),
     (Aspect("F", "person", "person", "has as father"),
      Aspect("f", "person", "person", "has as friend")),
     "type 'person': columns 'F' and 'f'"),
]


@pytest.mark.parametrize("types, aspects, named", FOLDED)
def test_ids_that_sqlite_folds_together_are_refused(types, aspects, named):
    spec = Specification(graph=Graph(types=types, aspects=aspects))
    d = KeyDiagram(sets={t.id: frozenset() for t in types}, funcs={a.id: {} for a in aspects})
    for emit in (emit_ddl, lambda s: emit_inserts(s, d)):
        with pytest.raises(OlogError, match=re.escape(named) + " differ only in case"):
            emit(spec)


def test_ids_that_differ_in_case_across_tables_commit_in_sqlite():
    # Each table is its own scope: aspect "F" of one and "f" of another.
    g = Graph(
        types=(TypeNode("a", "an a"), TypeNode("b", "a b")),
        aspects=(Aspect("F", "a", "b", "has"), Aspect("f", "b", "a", "has")),
    )
    spec = Specification(graph=g)
    d = KeyDiagram(sets={"a": frozenset({"x"}), "b": frozenset({"y"})},
                   funcs={"F": {"x": "y"}, "f": {"y": "x"}})
    with in_memory_sqlite() as con:
        sqlite_commit(con, emit_ddl(spec), emit_inserts(spec, d))
        assert con.execute('SELECT "Id", "F" FROM "a"').fetchall() == [("x", "y")]
