"""Relational DDL from a specification.

Every type becomes a table keyed by ``Id``; every outgoing aspect becomes a
column with a foreign key into its target's table. Path equations cannot be
expressed as standard SQL constraints, so facts and sketch annotations are
rendered as structured trailing comments; the instance loader is the
enforcement point for them. Output is a deterministic SQL-92 subset with no
vendor features; every table and column id is a delimited identifier
(``"order"``), so an id that is an SQL keyword is still a name. SQLite folds
case even in delimited identifiers, so two type ids, or two column ids of
one table, that differ only in case are refused.
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING

from .core import Graph, Specification, format_fact
from .dsl import format_decl
from .errors import OlogError

if TYPE_CHECKING:
    from .instances import KeyDiagram

_COL_TYPE = "VARCHAR(255)"


def _name(ident: str) -> str:
    return f'"{ident}"'


def _check_case(g: Graph) -> None:
    """Raise :class:`OlogError` naming the first two type ids, or the first
    two column ids of one table, that differ only in case."""
    scopes = [("types", [t.id for t in g.types])]
    scopes += [(f"type '{t}': columns", ["Id"] + [a.id for a in ext])
               for t, ext in g.aspects_from.items()]
    for what, ids in scopes:
        seen: dict[str, str] = {}
        for ident in ids:
            other = seen.setdefault(ident.lower(), ident)
            if other != ident:
                raise OlogError(
                    f"{what} '{other}' and '{ident}' differ only in case; "
                    f"SQLite takes them for one name"
                )


def emit_ddl(spec: Specification) -> str:
    g = spec.graph
    _check_case(g)
    out: list[str] = []
    out.append(f"-- Schema generated from olog '{spec.name}'")
    out.append(
        f"-- {len(g.types)} types, {len(g.aspects)} aspects, {len(spec.facts)} facts"
    )
    out.append("")
    for t in g.types:
        cols = [f'    "Id" {_COL_TYPE} NOT NULL']
        fks = []
        for a in g.aspects_from.get(t.id, ()):
            cols.append(f"    {_name(a.id)} {_COL_TYPE} NOT NULL")
            fks.append(f'    FOREIGN KEY ({_name(a.id)}) REFERENCES {_name(a.tgt)} ("Id")')
        body = cols + ['    PRIMARY KEY ("Id")'] + fks
        out.append(f"CREATE TABLE {_name(t.id)} (")
        out.append(",\n".join(body))
        out.append(");")
        out.append("")
    for t in g.types:
        out.append(f'-- TYPE {t.id}: "{t.label}"')
    for a in g.aspects:
        mods = "".join(
            f" [{m}]" for m in ("injective", "surjective") if m in a.modifiers
        )
        out.append(f'-- ASPECT {a.id} ({a.src} -> {a.tgt}): "{a.label}"{mods}')
    for f in spec.facts:
        out.append(f"-- FACT: {format_fact(f)}")
    for d in spec.sketch:
        out.append(f"-- SKETCH: {format_decl(g, d)}")
    return "\n".join(out) + "\n"


def emit_inserts(spec: Specification, d: KeyDiagram) -> str:
    """INSERT statements for a loaded key diagram, in canonical order.

    Key closure of the diagram guarantees the emitted rows satisfy every
    FOREIGN KEY constraint of :func:`emit_ddl`.
    """
    g = spec.graph
    _check_case(g)
    out: list[str] = []
    for t in g.types:
        aspect_ids = [a.id for a in g.aspects_from.get(t.id, ())]
        names = ", ".join(map(_name, ["Id"] + aspect_ids))
        head = f"INSERT INTO {_name(t.id)} ({names}) VALUES ("
        keys = d.keys(t.id)
        columns = [keys] + [map(d.funcs[aid].__getitem__, keys) for aid in aspect_ids]
        # Each value doubles its quotes; the joins put the quotes around it.
        escaped = [map(str.replace, col, repeat("'"), repeat("''")) for col in columns]
        out.extend(f"{head}'{row}');" for row in map("', '".join, zip(*escaped)))
    return "\n".join(out) + ("\n" if out else "")
