"""Byte-level fuzz of the system and table readers.

Hypothesis bytes replace one file in a temporary copy of a fixture system or
data directory: arbitrary bytes, the file's own bytes with a few byte-level
edits, or the file with 140,000 ``x`` bytes inserted, a cell longer than
csv's field size limit. The readers must answer with diagnostics or problems and
raise nothing, and the commands built on them must exit 0, 1 or 2.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from olog import dsl
from olog.cli import main
from olog.instances import load_tables

from .conftest import FIXTURES, load_olog

SYSTEM = "span.osys"
SYSTEM_FILES = (
    SYSTEM,
    "ground.olog",
    "left.olog",
    "right.olog",
    "ground_to_left.omap",
    "ground_to_right.omap",
)
# (olog, data directory): sketch checks of every kind run on these tables.
DATA = (
    ("metric.olog", "data_metric"),
    ("duck.olog", "data_duck"),
    ("factorial.olog", "data_factorial"),
)
SETTINGS = settings(max_examples=100, deadline=None)


def _edit(data: bytes, edits) -> bytes:
    """Insert, overwrite or delete a chunk at each (position, op, chunk)."""
    for pos, op, chunk in edits:
        pos %= len(data) + 1
        if op == 0:
            data = data[:pos] + chunk + data[pos:]
        elif op == 1:
            data = data[:pos] + chunk + data[pos + len(chunk):]
        else:
            data = data[:pos] + data[pos + len(chunk):]
    return data


def _bytes_for(original: bytes):
    edit = st.tuples(
        st.integers(0, len(original)), st.integers(0, 2), st.binary(min_size=1, max_size=4)
    )
    edits = st.lists(edit, min_size=1, max_size=4)
    # A cell over csv's field size limit of 131,072 characters.
    long_cell = st.integers(0, len(original)).map(
        lambda pos: _edit(original, [(pos, 0, b"x" * 140_000)])
    )
    return st.one_of(
        st.binary(max_size=200), edits.map(lambda e: _edit(original, e)), long_cell
    )


def _replacing_one_of(where: Path, names):
    """(file name, new bytes) for one of ``names`` under ``where``."""
    return st.sampled_from(names).flatmap(
        lambda n: st.tuples(st.just(n), _bytes_for((where / n).read_bytes()))
    )


def _exit_code(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


@SETTINGS
@given(_replacing_one_of(FIXTURES, SYSTEM_FILES))
def test_parse_system_and_fuse_survive_any_bytes(case):
    name, data = case
    with tempfile.TemporaryDirectory() as tmp:
        where = Path(tmp)
        for f in SYSTEM_FILES:
            shutil.copy(FIXTURES / f, where / f)
        (where / name).write_bytes(data)
        sysm, diags = dsl.parse_system(where / SYSTEM, bound=3)
        assert (sysm is None) == dsl.has_errors(diags)
        assert _exit_code("--bound", "3", "fuse", where / SYSTEM) in (0, 1, 2)


def _tables(data_dir: str) -> list[str]:
    return sorted(p.name for p in (FIXTURES / data_dir).iterdir())


@SETTINGS
@given(st.sampled_from(DATA).flatmap(
    lambda od: st.tuples(st.just(od), _replacing_one_of(FIXTURES / od[1], _tables(od[1])))
))
def test_load_tables_and_validate_survive_any_bytes(case):
    (olog, data_dir), (name, data) = case
    with tempfile.TemporaryDirectory() as tmp:
        where = Path(tmp)
        for f in _tables(data_dir):
            shutil.copy(FIXTURES / data_dir / f, where / f)
        (where / name).write_bytes(data)
        _, problems = load_tables(where, load_olog(olog))
        assert all(isinstance(p, str) for p in problems)
        assert _exit_code("validate", FIXTURES / olog, "--data", where) in (0, 1, 2)
