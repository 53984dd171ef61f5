"""The package's import contract.

``import olog`` loads no submodule: each exported name is imported from its
submodule on first use, and each CLI command imports only the modules it
runs. The import checks run in fresh interpreters, because modules that one
test imported stay in ``sys.modules`` for the rest of the session. No
``olog`` module loads ``dataclasses`` or ``inspect``, whose import costs
every command; what a bare interpreter of the same environment already
loads (a ``site`` hook may load ``inspect``) does not count.
``scripts/fixture_report.py``, which calls the library's main entry points
on every shipped fixture, must run to the end and pass each data set.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys

import pytest

import olog

from .conftest import FIXTURES

SRC = FIXTURES.parent / "src"
MODULES = ("cli", "core", "dsl", "entail", "errors", "flow", "instances", "sketch", "sqlgen", "system")
# The submodules that ``import olog`` makes attributes of the package.
EXPORTING = ("core", "entail", "errors", "flow", "instances", "system")


def fresh(code: str, *argv: str) -> tuple:
    """Run ``code`` in a new interpreter; the literal its last stdout line prints."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=FIXTURES.parent,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_every_exported_name_resolves_to_its_defining_object():
    for name in olog.__all__:
        value = getattr(olog, name)
        if name == "__version__":
            continue
        home = sys.modules[f"olog.{olog._HOME[name]}"]
        assert value is getattr(home, name), name
        if callable(value):
            assert value.__module__ == home.__name__, name


def test_star_import_binds_all_of_all():
    ns: dict = {}
    exec("from olog import *", ns)
    ns.pop("__builtins__")
    assert sorted(ns) == sorted(olog.__all__)
    assert all(ns[name] is getattr(olog, name) for name in ns)
    assert fresh(
        "ns = {}\n"
        "exec('from olog import *', ns)\n"
        "print(sorted(k for k in ns if k != '__builtins__'))\n"
    ) == sorted(olog.__all__)


def test_dir_lists_all_and_the_submodules():
    listed = set(dir(olog))
    assert set(olog.__all__) <= listed
    assert set(EXPORTING) <= listed


def test_unknown_attribute_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        olog.no_such_name
    assert not hasattr(olog, "no_such_name")


def test_import_olog_loads_no_submodule_until_one_is_used():
    before, after, same = fresh(
        "import sys, olog\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('olog.'))\n"
        "before = loaded()\n"
        f"same = all(getattr(olog, m) is sys.modules['olog.' + m] for m in {EXPORTING!r})\n"
        "print((before, loaded(), same))\n"
    )
    assert before == []
    assert after == sorted(f"olog.{m}" for m in EXPORTING)
    assert same


@pytest.mark.parametrize("first", MODULES)
def test_each_module_imports_first_in_a_fresh_interpreter(first):
    # A cycle among the lazy imports shows only when its first module is
    # imported before any other.
    assert fresh(f"import olog.{first}; print(1)") == 1


def test_reading_the_text_formats_loads_only_the_schema():
    assert fresh(
        "import sys, olog.dsl\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'olog'))\n"
    ) == ["olog", "olog.core", "olog.dsl", "olog.errors"]


BASE = {"olog", "olog.cli", "olog.core", "olog.dsl", "olog.errors"}
DATA = BASE | {"olog.instances", "olog.sketch"}
FLOW = BASE | {"olog.entail", "olog.flow"}
SYSTEM = FLOW | {"olog.system"}
# Stands for the test's temporary directory: a data directory without the
# synthesized table, and an output directory.
TMP = "<tmp>"
COMMANDS = [
    (["check", "fixtures/employee.olog"], BASE),
    (["entail", "fixtures/family.olog", "--fact", "parents;w = mother"], BASE | {"olog.entail"}),
    (["validate", "fixtures/family.olog", "--data", "fixtures/data_family"], DATA),
    (["synth", "fixtures/duck.olog", "--data", TMP, "--decl", "creature"], DATA),
    (["flow", "dir", "--morphism", "fixtures/community_to_portal.omap",
      "--source", "fixtures/community.olog", "--target", "fixtures/portal.olog"], FLOW),
    (["morphism", "check", "--morphism", "fixtures/community_to_portal.omap",
      "--source", "fixtures/community.olog", "--target", "fixtures/portal.olog"], FLOW),
    (["lot", "expand", "fixtures/employee.olog",
      "--fact", "manager;manager;works_in = works_in"], FLOW),
    (["fuse", "fixtures/w.osys"], SYSTEM),
    (["consequence", "fixtures/w.osys", "--out-dir", TMP], SYSTEM),
    (["sqlgen", "fixtures/family.olog"], BASE | {"olog.sqlgen"}),
]


# Standard modules no ``olog`` module may load.
HEAVY = ("dataclasses", "inspect")
# An expression for those of them that are loaded.
LOADED_HEAVY = f"sorted(m for m in {HEAVY!r} if m in sys.modules)"


@pytest.fixture(scope="module")
def bare():
    """The modules of ``HEAVY`` that a bare interpreter has loaded."""
    return set(fresh(f"import sys; print({LOADED_HEAVY})"))


def run_command(*argv: str) -> tuple:
    """Exit code, loaded ``olog`` modules, whether ``json`` was loaded, and
    which modules of ``HEAVY`` were loaded."""
    return fresh(
        "import sys\n"
        "from olog.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print((code, sorted(m for m in sys.modules if m.split('.')[0] == 'olog'),"
        f" 'json' in sys.modules, {LOADED_HEAVY}))\n",
        *argv,
    )


@pytest.mark.parametrize("argv, modules", COMMANDS, ids=[argv[0] for argv, _ in COMMANDS])
def test_command_imports_only_what_it_runs(argv, modules, tmp_path, bare):
    (tmp_path / "flyer.csv").write_text("Id\nduck\n")
    (tmp_path / "swimmer.csv").write_text("Id\nduck\n")
    argv = [str(tmp_path) if a == TMP else a for a in argv]
    code, loaded, with_json, heavy = run_command(*argv)
    assert code == 0
    assert set(loaded) == modules
    assert not with_json
    assert set(heavy) <= bare


def test_json_format_imports_json(bare):
    argv = ["--format", "json", "entail", "fixtures/family.olog", "--fact", "parents;w = mother"]
    code, loaded, with_json, heavy = run_command(*argv)
    assert code == 0
    assert set(loaded) == BASE | {"olog.entail"}
    assert with_json
    assert set(heavy) <= bare


def test_no_olog_module_loads_dataclasses_or_inspect(bare):
    imports = "".join(f"import olog.{m}\n" for m in MODULES)
    assert set(fresh(f"import sys\n{imports}print({LOADED_HEAVY})\n")) <= bare


def test_fixture_report_runs_over_every_shipped_data_set():
    script = FIXTURES.parent / "scripts" / "fixture_report.py"
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    passed = [line.split()[0] for line in proc.stdout.splitlines() if "facts=ok sketch=ok" in line]
    assert passed == ["family.olog", "employee.olog", "factorial.olog", "metric.olog", "duck.olog"]
