from __future__ import annotations

from pathlib import Path

import pytest

from olog import dsl, entail, instances

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_olog(name: str):
    spec, diags = dsl.parse_olog((FIXTURES / name).read_text(encoding="utf-8"), name)
    errors = [d for d in diags if d.severity == dsl.ERROR]
    assert spec is not None and not errors, errors
    return spec


def roots(spec, bound: int) -> tuple:
    """Each path id's root, the least id in its class: the first id of its
    state in ``entail._states``."""
    first: dict = {}
    return tuple(first.setdefault(s, i) for i, s in enumerate(entail._states(spec, bound)[1]))


def write_overflowing_system(where: Path) -> Path:
    """An edge whose translation of a declared fact is longer than bound 4."""
    (where / "a.olog").write_text(
        'olog A {\n  type x "an x"\n  aspect f : x -> x "is"\n  fact f;f;f = f\n}\n'
    )
    (where / "b.olog").write_text(
        'olog B {\n  type x "an x"\n  aspect g : x -> x "is"\n  aspect h : x -> x "is"\n}\n'
    )
    (where / "ab.omap").write_text("type x => x\naspect f => g;h\n")
    (where / "s.osys").write_text("node a = a.olog\nnode b = b.olog\nedge e : a -> b = ab.omap\n")
    return where / "s.osys"


def write_overflowing_node(where: Path) -> tuple[Path, Path]:
    """Two systems over a node that declares a fact longer than bound 2.

    The first has that node alone; the second adds a copy of it as node
    ``b`` and an edge ``e : a -> b``.
    """
    (where / "a.olog").write_text(
        'olog A {\n  type x "an x"\n  aspect f : x -> x "is"\n  fact f;f;f = f\n}\n'
    )
    (where / "aa.omap").write_text("type x => x\naspect f => f\n")
    (where / "alone.osys").write_text("node a = a.olog\n")
    (where / "pair.osys").write_text(
        "node a = a.olog\nnode b = a.olog\nedge e : a -> b = aa.omap\n"
    )
    return where / "alone.osys", where / "pair.osys"


def load_data(dirname: str, spec):
    return instances.load_instances(FIXTURES / dirname, spec)


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def family_spec():
    return load_olog("family.olog")


@pytest.fixture(scope="session")
def employee_spec():
    return load_olog("employee.olog")


@pytest.fixture(scope="session")
def factorial_spec():
    return load_olog("factorial.olog")


@pytest.fixture(scope="session")
def metric_spec():
    return load_olog("metric.olog")


@pytest.fixture(scope="session")
def duck_spec():
    return load_olog("duck.olog")


@pytest.fixture(scope="session")
def family_data(family_spec):
    return load_data("data_family", family_spec)


@pytest.fixture(scope="session")
def employee_data(employee_spec):
    return load_data("data_employee", employee_spec)


@pytest.fixture(scope="session")
def factorial_data(factorial_spec):
    return load_data("data_factorial", factorial_spec)


@pytest.fixture(scope="session")
def metric_data(metric_spec):
    return load_data("data_metric", metric_spec)


@pytest.fixture(scope="session")
def duck_data(duck_spec):
    return load_data("data_duck", duck_spec)
