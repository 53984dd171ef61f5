#!/usr/bin/env python3
"""Fingerprint the CLI and the parser: one JSON line per case on stdout.

Commands run in-process through ``olog.cli.main``, inside a temporary
directory that holds a copy of ``fixtures/``. File names in diagnostics and
in "wrote ..." notes are then the same wherever the checkout lives. Each
command's line holds its exit code and the sha256 of its stdout, its stderr
and every file it wrote. The commands are:

- ``--help`` of ``olog`` and of every command and subcommand, an unknown
  and a missing command, and a bad ``--bound`` before and after a command;
- ``check`` on every fixture olog, text and json, with and without --quiet,
  and text and json on small ologs, written into the temporary directory,
  that each hold one bad declaration: a reserved id, an aspect ``Id``, a
  duplicate id, a type and an aspect of one id, an empty type label or an
  unknown endpoint; and text and json, with and without --quiet, on small
  ologs whose one extra type label breaks the article rule, the punctuation
  rule, both or neither, so that every style-lint warning is pinned;
- ``entail`` text and json at bounds 2-6, for each declared fact, a few
  pairs of parallel paths, an ill-typed fact and an unknown aspect, and the
  same queries at bound 8 on ``employee.olog`` and ``metric.olog``, whose
  universes hold 459 and 3,832 paths over several types, and text and json
  queries at bound 8 on a commutative monoid of three loops on one type,
  written into the temporary directory: its 9,841 paths fall into classes
  of up to 560 members, so the witness chosen from each class is pinned,
  and one query at bound 40, past the path budget;
  and text and json queries on ``family.olog`` whose fact text holds a tab,
  a carriage return, a form feed, a newline, a trailing comment, an
  unterminated quote, a non-ASCII id, an empty step or a ``->``;
- ``validate`` and ``sqlgen`` on every olog with data (and the mutated and
  triangle data sets), and ``synth`` of every sketch target, with the data
  as shipped and with the target table removed, with and without ``-o``;
  the same on an olog with a product, a pullback and a pushout, written
  with its tables into the temporary directory, since no fixture has data
  for a pushout or a non-empty product; then on seeded row-level mutants of
  every one of these data sets, each made by ``mutate_rows`` (drop a row
  that no cell refers to, twin a row under a fresh Id, or redirect a cell
  to another Id of its column's type), so that every kind of check witness
  is compared;
- ``sqlgen`` on small ologs, written into the temporary directory, whose
  ids SQLite folds together: two types ``Employee`` and ``employee``, an
  aspect ``ID`` beside the key column ``Id``, and two aspects ``F`` and
  ``f`` from one type;
- ``flow dir``, ``flow inv`` and ``morphism check`` on every fixture
  morphism at bounds 2, 3, 4 and 6, plus a morphism read backwards, and
  ``flow inv`` and ``morphism check`` at those bounds along a morphism,
  written into the temporary directory, that sends an aspect to a path of
  two aspects, so the bound inverse flow derives for its far side is pinned;
- ``fuse`` and ``consequence`` on the four fixture systems at bounds 2-6;
- ``lot contract``, ``expand``, ``revise`` and ``analogy``.

Then seeded line-level mutants, all made by ``mutate``, go through the
readers; besides line and id edits, a mutant may have a character inserted
or deleted, which splits an ``->``, drops a ``;`` or a ``)``, or adds a bad
character: mutants of the fixture ologs through ``dsl.parse_olog``, of the
fixture morphisms through ``dsl.parse_morphism`` against their source and
target, and of the ``entail`` fact strings through ``dsl.parse_fact_text``.
Their lines hold whether the text was accepted, the diagnostics (or the
error) as text, so that a differing line shows what changed, and the sha256
of what was read.

Run it in two checkouts and diff the output; every differing line is a
change in behaviour:

    python3 scripts/cli_sweep.py > sweep.jsonl

``--against REV`` does that in one step. It extracts REV with ``git archive``
into a temporary directory and copies this checkout's ``cli_sweep.py`` and
``revision.py`` over REV's, so both sides run the same cases. It runs the
sweep there and in this checkout, prints only the lines that differ (``-`` at
REV, ``+`` here) and exits 1 if any do:

    python3 scripts/cli_sweep.py --against HEAD~1
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import difflib
import functools
import hashlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from olog import dsl  # noqa: E402
from olog.cli import main as olog_main  # noqa: E402
from olog.core import KEYWORDS, enumerate_paths, format_fact, format_path, path_target  # noqa: E402
from olog.errors import OlogError  # noqa: E402
from revision import extract  # noqa: E402

MUTANTS = 8000
ROW_MUTANTS = 24  # per data set
OMAP_MUTANTS = 2000
FACT_MUTANTS = 4000
# Characters a mutant inserts or deletes: operator pieces, an id character,
# a non-ASCII letter and a tab.
TOKEN_CHARS = ";:,()=->*+_\u00e9\t"
BOUNDS = (2, 3, 4, 5, 6)
FLOW_BOUNDS = (2, 3, 4, 6)
# Ologs queried again above the default bound: (olog, bound).
WIDE = (("employee.olog", 8), ("metric.olog", 8))
# Every command and subcommand, each asked for its --help.
HELP = ("check", "entail", "validate", "synth", "sqlgen", "flow", "morphism", "morphism check",
        "fuse", "consequence", "lot", "lot contract", "lot expand", "lot revise", "lot analogy")
MONOID = """olog Monoid {
  type m "a state"
  aspect g0 : m -> m "acts by 0 on"
  aspect g1 : m -> m "acts by 1 on"
  aspect g2 : m -> m "acts by 2 on"
  fact g0;g1 = g1;g0
  fact g0;g2 = g2;g0
  fact g1;g2 = g2;g1
}
"""
# Entailed words out of their least order, words that differ as multisets,
# an identity, and a side longer than the bound.
MONOID_QUERIES = (
    "g1;g0 = g0;g1",
    "g2;g1;g0 = g1;g2;g0",
    "g2;g2;g1;g0;g1;g0 = g0;g2;g1;g2;g0;g1",
    "g2;g1;g0;g2;g1;g0;g2;g1 = g1;g2;g1;g0;g2;g0;g1;g2",
    "g2;g2;g2;g1;g1;g1;g0;g0 = g0;g0;g1;g1;g1;g2;g2;g2",
    "g0;g0 = g1;g1",
    "g2;g1;g0;g2 = g2;g1;g0;g1",
    "id(m) = id(m)",
    "g0;g0;g0;g0;g0;g0;g0;g0;g0 = g0",
)
# One declaration fault per olog, each a rule of ``core.id_errors``,
# ``label_errors`` or ``endpoint_errors``, for ``check``.
FAULTS = {
    "reserved": '  type of "an of"',
    "aspect_id": '  aspect Id : a -> a "keys"',
    "duplicate": '  type a "a second a"',
    "clash": '  aspect a : a -> a "loops"',
    "empty_label": '  type b ""',
    "unknown_end": '  aspect f : a -> z "runs to"',
}
# Type labels that break the article rule, the punctuation rule, both rules
# and neither, for the style-lint warnings of ``check``.
LINTS = {
    "lint_article": '  type b "the b"',
    "lint_punctuation": '  type b "a b."',
    "lint_both": '  type b "the b!"',
    "lint_neither": '  type b "an odd b"',
}
# Declarations whose ids SQLite folds together, for ``sqlgen``.
FOLDED = {
    "folded_types": '  type A "an a"',
    "folded_key": '  aspect ID : a -> a "has as twin"',
    "folded_columns": '  aspect F : a -> a "has as father"\n  aspect f : a -> a "has as friend"',
}
# Fact texts on family.olog that stress the tokenizer.
ODD_FACTS = (
    "parents;w\t=\tmother",
    "parents;w = mother\r",
    "parents;w\f= mother",
    "parents;w =\nmother",
    "parents;w = mother # the declared fact",
    'parents;w = "mother',
    "parents;wé = mother",
    "parents;;w = mother",
    "parents->w = mother",
)
DATA = {
    "family.olog": ("data_family", "data_family_mutated"),
    "employee.olog": ("data_employee",),
    "factorial.olog": ("data_factorial", "data_factorial_triangle"),
    "metric.olog": ("data_metric",),
    "duck.olog": ("data_duck",),
}
# A product, a pullback and a pushout of one left and one right type, an
# image and an injective aspect, for ``validate``, ``synth`` and ``sqlgen``
# on data that ``shape_tables`` writes.
SHAPES = """olog Shapes {
  type base "a base"
  type glued "a left or a right item, glued along the links"
  type left "a left item"
  type link "a link between a left and a right item"
  type match "a left and a right item over one base"
  type pair "a left and a right item"
  type right "a right item"
  type used "a base that a left item lies over"
  aspect k_left : link -> left "has as left item"
  aspect k_right : link -> right "has as right item"
  aspect l_base : left -> base "lies over"
  aspect l_glued : left -> glued "is glued as"
  aspect l_used : left -> used "lies over"
  aspect m_left : match -> left "has as left item"
  aspect m_right : match -> right "has as right item"
  aspect p_left : pair -> left "has as left item"
  aspect p_right : pair -> right "has as right item"
  aspect r_base : right -> base "lies over"
  aspect r_glued : right -> glued "is glued as" injective
  aspect u_base : used -> base "is"
  fact m_left;l_base = m_right;r_base
  fact k_left;l_glued = k_right;r_glued
  fact l_base = l_used;u_base
  product pair = left * right via (p_left,p_right)
  pullback match = left *_base right via (l_base,r_base) legs (m_left,m_right)
  pushout glued = left +_link right via (l_glued,r_glued) span (k_left,k_right)
  image used of l_base via (l_used,u_base)
}
"""
# A morphism whose aspect image has two aspects: f => g;g, with g;g = id(x)
# on the far side, so f;f = id(a) flows back only at a derived far bound.
TWICE = {
    "twice_src.olog": 'olog Loop {\n  type a "an a"\n  aspect f : a -> a "steps to"\n}\n',
    "twice_tgt.olog": 'olog Flip {\n  type x "an x"\n  aspect g : x -> x "flips"\n'
                      '  fact g;g = id(x)\n}\n',
    "twice.omap": "type a => x\naspect f => g;g\n",
}
EDGE_RE = re.compile(r"^\s*edge\s+\w+\s*:\s*(\w+)\s*->\s*(\w+)\s*=\s*(\S+)")
NODE_RE = re.compile(r"^\s*node\s+(\w+)\s*=\s*(\S+)")
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


@functools.lru_cache(maxsize=None)
def load(name: str):
    spec, _ = dsl.parse_olog((Path("fixtures") / name).read_text(encoding="utf-8"), name)
    return spec


def run(argv: list[str]) -> dict:
    shutil.rmtree("out", ignore_errors=True)
    Path("out").mkdir()
    stdout, stderr = io.StringIO(), io.StringIO()
    record = {"case": " ".join(argv)}
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            record["exit"] = olog_main(argv)
        except Exception as exc:  # a crash is a result too
            record["raised"] = type(exc).__name__
    record["stdout"] = digest(stdout.getvalue())
    record["stderr"] = digest(stderr.getvalue())
    written = sorted(p for p in Path("out").rglob("*") if p.is_file())
    record["files"] = {str(p): digest(p.read_bytes()) for p in written}
    return record


def shape_tables() -> dict[str, list[list[str]]]:
    """The tables of :data:`SHAPES`, header first: four left items and three
    right ones over two bases, three links gluing them into four classes,
    the product and the pullback under Ids that sort apart from their
    tuples, and both bases used."""
    left = {"l0": "b0", "l1": "b0", "l2": "b1", "l3": "b1"}
    right = {"r0": "b0", "r1": "b1", "r2": "b1"}
    links = {"k0": ("l0", "r0"), "k1": ("l1", "r0"), "k2": ("l3", "r2")}
    glued = {"l0": "g0", "l1": "g0", "r0": "g0", "l2": "g1", "l3": "g2", "r2": "g2", "r1": "g3"}
    pairs = [(x, y) for x in left for y in right]
    matches = [(x, y) for x, y in pairs if left[x] == right[y]]
    return {
        "base": [["Id"], ["b0"], ["b1"]],
        "glued": [["Id"]] + [[g] for g in sorted(set(glued.values()))],
        "left": [["Id", "l_base", "l_glued", "l_used"]]
        + [[x, b, glued[x], "u" + b] for x, b in left.items()],
        "link": [["Id", "k_left", "k_right"]] + [[k, x, y] for k, (x, y) in links.items()],
        "match": [["Id", "m_left", "m_right"]]
        + [[f"m{5 * i % len(matches)}", x, y] for i, (x, y) in enumerate(matches)],
        "pair": [["Id", "p_left", "p_right"]]
        + [[f"p{7 * i % len(pairs):02d}", x, y] for i, (x, y) in enumerate(pairs)],
        "right": [["Id", "r_base", "r_glued"]] + [[y, b, glued[y]] for y, b in right.items()],
        "used": [["Id", "u_base"], ["ub0", "b0"], ["ub1", "b1"]],
    }


def write_tables(directory: Path, tables: dict[str, list[list[str]]]) -> None:
    directory.mkdir(parents=True)
    for t, rows in tables.items():
        with open(directory / f"{t}.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)


def read_tables(directory: Path) -> dict[str, list[list[str]]]:
    tables = {}
    for table in sorted(directory.glob("*.csv")):
        with open(table, newline="", encoding="utf-8") as fh:
            tables[table.stem] = list(csv.reader(fh))
    return tables


def mutate_rows(spec, tables: dict[str, list[list[str]]], rng: random.Random):
    """One or two row-level edits of a copy of ``tables``: drop a row whose
    Id no cell refers to, twin a row under a fresh Id, or redirect a cell to
    an Id of the type its column refers to."""
    tables = {t: [list(row) for row in rows] for t, rows in tables.items()}
    # (table, column, type referred to) of each column that refers to a
    # type with a table
    refs = [
        (a.src, tables[a.src][0].index(a.id), a.tgt)
        for a in spec.graph.aspects
        if a.src in tables and a.tgt in tables and a.id in tables[a.src][0]
    ]
    for _ in range(rng.randint(1, 2)):
        op = rng.choice(["drop", "twin", "redirect"])
        if op == "redirect":
            choices = [r for r in refs if len(tables[r[0]]) > 1 and len(tables[r[2]]) > 1]
            if choices:
                src, col, tgt = rng.choice(choices)
                row = rng.choice(tables[src][1:])
                row[col] = rng.choice(tables[tgt][1:])[0]
            continue
        referred = {(tgt, row[col]) for src, col, tgt in refs for row in tables[src][1:]}
        candidates = [
            (t, i) for t, rows in sorted(tables.items()) for i in range(1, len(rows))
            if op == "twin" or (t, rows[i][0]) not in referred
        ]
        if candidates:
            t, i = rng.choice(candidates)
            if op == "drop":
                del tables[t][i]
            else:
                tables[t].append([f"{tables[t][i][0]}~{len(tables[t])}"] + tables[t][i][1:])
    return tables


def data_commands(olog: str, spec, data: str) -> list[list[str]]:
    """``validate``, ``sqlgen`` and ``synth`` of every sketch target on one
    data set, as shipped and with the target table removed."""
    cmds = [["--format", fmt, "validate", olog, "--data", data] for fmt in ("text", "json")]
    cmds.append(["sqlgen", olog, "--with-inserts", data])
    for decl in spec.sketch:
        partial = Path("inputs") / f"{Path(data).name}_without_{decl.target}"
        if not partial.exists():
            shutil.copytree(data, partial)
            (partial / f"{decl.target}.csv").unlink(missing_ok=True)
        for source in (data, str(partial)):
            base = ["synth", olog, "--data", source, "--decl", decl.target]
            cmds += [base, base + ["-o", "out/synth"]]
    return cmds


def entail_queries(spec) -> list[str]:
    queries = [format_fact(f) for f in spec.facts]
    groups: dict[tuple[str, str], list] = {}
    for p in enumerate_paths(spec.graph, 2):
        groups.setdefault((p.source, path_target(spec.graph, p)), []).append(p)
    pairs = [(p, q) for g in groups.values() for p in g for q in g if p < q]
    queries += [f"{format_path(p)} = {format_path(q)}" for p, q in pairs[:4]]
    aspects = spec.graph.aspects
    if len(aspects) >= 2:
        queries.append(f"{aspects[0].id} = {aspects[-1].id}")
    queries.append("nope = nope")
    return queries


def morphisms() -> list[tuple[str, str, str]]:
    """(source olog, target olog, morphism file) for every fixture system edge."""
    out = set()
    for osys in sorted(Path("fixtures").glob("*.osys")):
        lines = osys.read_text(encoding="utf-8").splitlines()
        nodes = dict(m.groups() for m in map(NODE_RE.match, lines) if m)
        for m in filter(None, map(EDGE_RE.match, lines)):
            src, tgt, omap = m.groups()
            out.add((f"fixtures/{nodes[src]}", f"fixtures/{nodes[tgt]}", f"fixtures/{omap}"))
    return sorted(out)


def commands() -> list[list[str]]:
    ologs = sorted(p.name for p in Path("fixtures").glob("*.olog"))
    cmds: list[list[str]] = [["--help"], ["nope"], []]
    cmds += [command.split() + ["--help"] for command in HELP]
    for bad in ("0", "-3", "x"):
        cmds.append(["--bound", bad, "check", "fixtures/family.olog"])
        cmds.append(["check", "fixtures/family.olog", "--bound", bad])
    for name in ologs:
        for fmt in ("text", "json"):
            cmds.append(["--format", fmt, "check", f"fixtures/{name}"])
            cmds.append(["--format", fmt, "--quiet", "check", f"fixtures/{name}"])
    for name in ologs:
        for query in entail_queries(load(name)):
            for bound in BOUNDS:
                for fmt in ("text", "json"):
                    cmds.append(["--bound", str(bound), "--format", fmt, "entail",
                                 f"fixtures/{name}", "--fact", query])
    for name, bound in WIDE:
        for query in entail_queries(load(name)):
            for fmt in ("text", "json"):
                cmds.append(["--bound", str(bound), "--format", fmt, "entail",
                             f"fixtures/{name}", "--fact", query])
    Path("inputs").mkdir(exist_ok=True)
    Path("inputs/monoid.olog").write_text(MONOID, encoding="utf-8")
    for query in MONOID_QUERIES:
        for fmt in ("text", "json"):
            cmds.append(["--bound", "8", "--format", fmt, "entail", "inputs/monoid.olog",
                         "--fact", query])
    cmds.append(["--bound", "40", "entail", "inputs/monoid.olog", "--fact", MONOID_QUERIES[0]])
    for fault, line in FAULTS.items():
        text = f'olog F {{\n  type a "an a"\n{line}\n}}\n'
        Path(f"inputs/{fault}.olog").write_text(text, encoding="utf-8")
        for fmt in ("text", "json"):
            cmds.append(["--format", fmt, "check", f"inputs/{fault}.olog"])
    for lint, line in LINTS.items():
        text = f'olog L {{\n  type a "an a"\n{line}\n}}\n'
        Path(f"inputs/{lint}.olog").write_text(text, encoding="utf-8")
        for fmt in ("text", "json"):
            cmds.append(["--format", fmt, "check", f"inputs/{lint}.olog"])
            cmds.append(["--format", fmt, "--quiet", "check", f"inputs/{lint}.olog"])
    for query in ODD_FACTS:
        for fmt in ("text", "json"):
            cmds.append(["--format", fmt, "entail", "fixtures/family.olog", "--fact", query])
    data_sets = [
        (f"fixtures/{name}", load(name), f"fixtures/{data}")
        for name, datas in sorted(DATA.items()) for data in datas
    ]
    for olog, spec, data in data_sets:
        cmds += data_commands(olog, spec, data)
    Path("inputs/shapes.olog").write_text(SHAPES, encoding="utf-8")
    write_tables(Path("inputs/data_shapes"), shape_tables())
    data_sets.append(("inputs/shapes.olog", dsl.parse_olog(SHAPES, "shapes.olog")[0],
                      "inputs/data_shapes"))
    cmds += data_commands(*data_sets[-1])
    for olog, spec, data in data_sets:
        tables = read_tables(Path(data))
        for i in range(ROW_MUTANTS):
            mutant = f"inputs/{Path(data).name}_rows{i}"
            write_tables(Path(mutant), mutate_rows(spec, tables, random.Random(f"{data}:{i}")))
            cmds += data_commands(olog, spec, mutant)
    for fold, lines in FOLDED.items():
        text = f'olog F {{\n  type a "an a"\n{lines}\n}}\n'
        Path(f"inputs/{fold}.olog").write_text(text, encoding="utf-8")
        cmds.append(["sqlgen", f"inputs/{fold}.olog"])
    for name in ologs:
        cmds.append(["sqlgen", f"fixtures/{name}"])
        cmds.append(["sqlgen", f"fixtures/{name}", "-o", "out/schema.sql"])
    triples = morphisms()
    for src, tgt, omap in triples + [(triples[0][1], triples[0][0], triples[0][2])]:
        where = ["--morphism", omap, "--source", src, "--target", tgt]
        cmds.append(["flow", "dir", *where])
        cmds.append(["flow", "dir", *where, "-o", "out/dir.olog"])
        for bound in FLOW_BOUNDS:
            cmds.append(["--bound", str(bound), "flow", "inv", *where])
            for fmt in ("text", "json"):
                cmds.append(["--bound", str(bound), "--format", fmt, "morphism", "check", *where])
        cmds.append(["lot", "analogy", src, "--morphism", omap, "--target", tgt])
    for name, text in TWICE.items():
        Path(f"inputs/{name}").write_text(text, encoding="utf-8")
    where = ["--morphism", "inputs/twice.omap", "--source", "inputs/twice_src.olog",
             "--target", "inputs/twice_tgt.olog"]
    for bound in FLOW_BOUNDS:
        cmds.append(["--bound", str(bound), "flow", "inv", *where])
        for fmt in ("text", "json"):
            cmds.append(["--bound", str(bound), "--format", fmt, "morphism", "check", *where])
    cmds.append(["flow", "dir", "--morphism", "fixtures/missing.omap",
                 "--source", triples[0][0], "--target", triples[0][1]])
    for osys in sorted(p.name for p in Path("fixtures").glob("*.osys")):
        for bound in BOUNDS:
            cmds.append(["--bound", str(bound), "fuse", f"fixtures/{osys}"])
            cmds.append(["--bound", str(bound), "fuse", f"fixtures/{osys}", "-o", "out/fused.olog"])
            cmds.append(["--bound", str(bound), "consequence", f"fixtures/{osys}",
                         "--out-dir", "out/nodes"])
    for name in ologs:
        spec = load(name)
        for query in entail_queries(spec):
            cmds.append(["lot", "contract", f"fixtures/{name}", "--fact", query])
            cmds.append(["lot", "expand", f"fixtures/{name}", "--fact", query])
        if spec.facts:
            first = spec.facts[0]
            cmds.append(["lot", "revise", f"fixtures/{name}", "--delete", format_fact(first),
                         "--add", f"{format_path(first.rhs)} = {format_path(first.lhs)}"])
    return cmds


def mutate(text: str, rng: random.Random) -> str:
    """One or two line-level edits: drop, repeat or swap lines, swap ids, add a
    sketch line, put a ``#`` or a ``"`` at some column of a line, or insert
    or delete one character of :data:`TOKEN_CHARS` at some column of a line,
    which splits or joins tokens."""
    lines = text.splitlines()
    ids = sorted(set(IDENT_RE.findall(text)) - KEYWORDS) or ["x"]
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(lines))
        op = rng.randrange(8)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op in (3, 4):
            words = list(IDENT_RE.finditer(lines[i]))
            if words:
                w = rng.choice(words)
                lines[i] = lines[i][: w.start()] + rng.choice(ids) + lines[i][w.end():]
        elif op == 5:
            col = rng.randrange(len(lines[i]) + 1)
            lines[i] = lines[i][:col] + rng.choice('#"') + lines[i][col:]
        elif op == 6:
            a, b, c, d, e, f = (rng.choice(ids) for _ in range(6))
            lines.insert(max(i, 1), "  " + rng.choice((
                f"product {a} = {b} * {c} via ({d},{e})",
                f"pullback {a} = {b} *_{c} {d} via ({e},{f}) legs ({d},{e})",
                f"coproduct {a} = {b} + {c} via ({d},{e})",
                f"pushout {a} = {b} +_{c} {d} via ({e},{f}) span ({d},{e})",
                f"image {a} of {b} via ({c},{d})",
                f"singleton {a}",
                f"empty {a}",
            )))
        else:
            cols = [k for k, ch in enumerate(lines[i]) if ch in TOKEN_CHARS]
            if cols and rng.randrange(2):
                col = rng.choice(cols)
                lines[i] = lines[i][:col] + lines[i][col + 1:]
            else:
                col = rng.randrange(len(lines[i]) + 1)
                lines[i] = lines[i][:col] + rng.choice(TOKEN_CHARS) + lines[i][col:]
        if not lines:
            break
    return "\n".join(lines) + "\n"


def mutants() -> list[dict]:
    ologs = sorted(Path("fixtures").glob("*.olog"))
    out = []
    for i in range(MUTANTS):
        source = ologs[i % len(ologs)]
        text = mutate(source.read_text(encoding="utf-8"), random.Random(i))
        spec, diags = dsl.parse_olog(text, f"fixtures/{source.name}")
        out.append({
            "case": f"mutant {i} of {source.name}",
            "accepted": spec is not None,
            "diagnostics": list(map(str, diags)),
            "printed": digest(dsl.print_olog(spec)) if spec is not None else None,
        })
    return out


def omap_mutants() -> list[dict]:
    triples = morphisms()
    out = []
    for i in range(OMAP_MUTANTS):
        src, tgt, omap = triples[i % len(triples)]
        text = mutate(Path(omap).read_text(encoding="utf-8"), random.Random(i))
        h, diags = dsl.parse_morphism(text, load(Path(src).name), load(Path(tgt).name), omap)
        read = None
        if h is not None:
            maps = sorted(h.type_map.items()) + sorted(
                (a, format_path(p)) for a, p in h.aspect_map.items()
            )
            read = digest(repr(maps))
        out.append({
            "case": f"omap mutant {i} of {Path(omap).name}",
            "accepted": h is not None,
            "diagnostics": list(map(str, diags)),
            "read": read,
        })
    return out


def fact_mutants() -> list[dict]:
    queries = [
        (name, query)
        for name in sorted(p.name for p in Path("fixtures").glob("*.olog"))
        for query in entail_queries(load(name))
    ]
    out = []
    for i in range(FACT_MUTANTS):
        name, query = queries[i % len(queries)]
        text = mutate(query, random.Random(i))
        record = {"case": f"fact mutant {i} of {name}"}
        try:
            record["read"] = digest(format_fact(dsl.parse_fact_text(text, load(name).graph)))
        except OlogError as exc:
            record["error"] = str(exc)
        out.append(record)
    return out


def against(rev: str) -> int:
    """Sweep REV and this checkout side by side; print the differing lines."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    with tempfile.TemporaryDirectory() as old:
        extract(rev, Path(old))
        for script in ("cli_sweep.py", "revision.py"):
            shutil.copy(ROOT / "scripts" / script, Path(old) / "scripts" / script)
        runs = [
            subprocess.Popen([sys.executable, str(root / "scripts" / "cli_sweep.py")],
                             stdout=subprocess.PIPE, text=True, env=env)
            for root in (Path(old), ROOT)
        ]
        before, after = (run.communicate()[0].splitlines() for run in runs)
        if any(run.returncode for run in runs):
            raise SystemExit("a sweep failed")
    diff = list(difflib.unified_diff(before, after, lineterm="", n=0))[2:]
    for line in diff:
        if not line.startswith("@@"):
            print(line)
    return 1 if diff else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="print only what differs from REV")
    args = parser.parse_args()
    if args.against:
        return against(args.against)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        shutil.copytree(ROOT / "fixtures", Path(work) / "fixtures")
        os.chdir(work)
        try:
            for argv in commands():
                print(json.dumps(run(argv), sort_keys=True))
            for record in mutants() + omap_mutants() + fact_mutants():
                print(json.dumps(record, sort_keys=True))
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
