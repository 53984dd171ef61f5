"""Text formats: `.olog` specifications, `.omap` morphisms, `.osys` systems.

All three formats are line oriented, UTF-8, with `#` comments and ASCII ids,
read with one lexical definition (``_TOKEN_RE``, built on ``core._ID``). Parsing
is total: malformed input produces diagnostics with source positions, never an
exception. Printing is canonical (declarations sorted by id), so printing a
parsed file reproduces it byte for byte and printing is stable under
re-parsing.

    olog Family {
      type person "a person"
      aspect mother : person -> woman "has as mother"
      fact parents;w = mother
      pullback A = B *_D C via (f,g) legs (pb,pc)
    }

Morphism files map each source type to a target type and each source aspect
to a target path: ``type a => b`` and ``aspect f => g;h`` (or ``id(T)``).
System files list nodes and edges: ``node n = file.olog`` and
``edge e : n -> m = file.omap``, resolved relative to the system file.
"""

from __future__ import annotations

import re
from pathlib import Path as FsPath
from typing import TYPE_CHECKING, NamedTuple

from .core import (
    _ID,
    DEFAULT_BOUND,
    MODIFIERS,
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
    endpoint_errors,
    format_path,
    id_errors,
    label_errors,
    legs,
    missing_square_facts,
    parallel_errors,
    path_target,
)
from .errors import OlogError

# ``parse_morphism`` and ``parse_system`` import ``flow`` and ``system``
# themselves, so reading an olog loads neither.
if TYPE_CHECKING:
    from .flow import GraphMorphism
    from .system import InformationSystem

ERROR = "error"
WARNING = "warning"


class SourceSpan(NamedTuple):
    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class ParseDiagnostic(NamedTuple):
    severity: str
    message: str
    at: SourceSpan

    def __str__(self) -> str:
        return f"{self.at} - {self.severity}: {self.message}"


def has_errors(diagnostics) -> bool:
    return any(d.severity == ERROR for d in diagnostics)


# ---------------------------------------------------------------------------
# Tokenizer

# A `#` outside a string starts a comment, which runs to the end of the text
# tokenized: one line of a file, or all of a fact given on the command line.
# Each match is one token after any blanks, of the kind its group names. No
# kind starts with a blank or a line break, so none is ever a token.
_TOKEN_RE = re.compile(
    rf"""
    [ \t]*(?:
      (?P<STRING>"[^"\n]*")
    | (?P<COMMENT>\#(?s:.*))
    | (?P<IDENT>{_ID})
    | (?P<OP>->|=>|\*_|\+_|[{{}}();,=:*+])
    | (?P<BAD>[^ \t\n])
    )
    """,
    re.VERBOSE,
)


class _Tok(NamedTuple):
    """A token and where it starts; its :class:`SourceSpan` is made on demand."""

    kind: str
    text: str
    file: str
    line: int
    column: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.file, self.line, self.column)

    @property
    def found(self) -> str:
        return "end of line" if self.kind == "END" else f"'{self.text}'"


class _Stop(Exception):
    """A reader reported an error and gives up the rest of its line."""


class _Cursor:
    """One line's tokens, ending in an ``END`` token at column 1 that
    :meth:`next` never passes."""

    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        if t.kind != "END":
            self.pos += 1
        return t


class _Parser:
    """Shared token-level helpers plus a diagnostics sink."""

    def __init__(self, filename: str):
        self.filename = filename
        self.diagnostics: list[ParseDiagnostic] = []

    def tokenize(self, line: str, lineno: int) -> _Cursor:
        """A cursor over one line's tokens; each unexpected character is an error and dropped."""
        toks: list[_Tok] = []
        file, new = self.filename, tuple.__new__  # _Tok's own __new__ costs a call
        for m in _TOKEN_RE.finditer(line):
            k, kind = m.lastindex, m.lastgroup
            if kind == "BAD":
                at = SourceSpan(file, lineno, m.start(k) + 1)
                self.error(f"unexpected character '{m[k]}'", at)
            elif kind != "COMMENT":
                toks.append(new(_Tok, (kind, m[k], file, lineno, m.start(k) + 1)))
        toks.append(new(_Tok, ("END", "", file, lineno, 1)))
        return _Cursor(toks)

    def error(self, message: str, at: SourceSpan):
        self.diagnostics.append(ParseDiagnostic(ERROR, message, at))

    def warn(self, message: str, at: SourceSpan):
        self.diagnostics.append(ParseDiagnostic(WARNING, message, at))

    def fail(self, message: str, at: SourceSpan):
        self.error(message, at)
        raise _Stop

    def attempt(self, read, *args, **kwargs):
        """``read(*args, **kwargs)``, or None if it stopped at an error; for a
        step after which the rest of the line is still checked."""
        try:
            return read(*args, **kwargs)
        except _Stop:
            return None

    def expect(
        self, cur: _Cursor, kind: str, text: str | None = None, what: str | None = None
    ) -> _Tok:
        t = cur.next()
        if t.kind == kind and (text is None or t.text == text):
            return t
        if what is None:
            what = f"'{text}'" if text is not None else kind.lower()
        self.fail(f"expected {what}, found {t.found}", t.span)

    def expect_end(self, cur: _Cursor):
        t = cur.peek()
        if t.kind != "END":
            self.error(f"unexpected trailing '{t.text}'", t.span)

    def parse_path_tokens(self, cur: _Cursor) -> tuple[list[_Tok], SourceSpan]:
        """Collect the tokens of one path: `id(T)` or `a;b;c`."""
        first = cur.next()
        if first.kind != "IDENT":
            self.fail(f"expected a path, found {first.found}", first.span)
        toks = [first]
        if first.text == "id":
            self.expect(cur, "OP", "(")
            toks.append(self.expect(cur, "IDENT", what="a type id"))
            self.expect(cur, "OP", ")")
            return toks, first.span
        while cur.peek().text == ";":
            cur.next()
            toks.append(self.expect(cur, "IDENT", what="an aspect id"))
        return toks, first.span


def _resolve_path(
    parser: _Parser, graph: Graph, toks: list[_Tok], span: SourceSpan
) -> tuple[Path, str]:
    """The path the tokens name and the type where it ends."""
    if toks[0].text == "id" and len(toks) == 2:
        tid = toks[1].text
        if not graph.has_type(tid):
            parser.fail(f"unknown type '{tid}'", toks[1].span)
        return Path(tid, ()), tid
    for t in toks:
        if t.text not in graph.aspect_by_id:
            parser.fail(f"unknown aspect '{t.text}'", t.span)
    p = Path(graph.aspect_by_id[toks[0].text].src, tuple(t.text for t in toks))
    try:
        return p, path_target(graph, p)
    except OlogError as exc:
        parser.fail(str(exc), span)


def _resolve_paths(parser: _Parser, graph: Graph, got) -> list[tuple[Path, str]]:
    """Resolve each path of a declaration, reporting every one that fails."""
    paths = [parser.attempt(_resolve_path, parser, graph, *g) for g in got]
    if None in paths:
        raise _Stop
    return paths


_ARTICLE_RE = re.compile(r"^(a|an)\s", re.IGNORECASE)


def _label_lints(label: str) -> frozenset[str]:
    flags = set()
    if not _ARTICLE_RE.match(label):
        flags.add("label-article")
    if label and label[-1] in ".,:;!?":
        flags.add("label-punctuation")
    return frozenset(flags)


# ---------------------------------------------------------------------------
# .olog parsing


def parse_olog(
    text: str, filename: str = "<olog>"
) -> tuple[Specification | None, list[ParseDiagnostic]]:
    """Parse a specification; on any error returns (None, diagnostics).

    Warnings (style lints on labels, undeclared commuting squares) do not
    prevent construction. Empty input denotes the empty specification.
    """
    p = _Parser(filename)
    lines = text.splitlines()

    name = "olog"
    body: list[tuple[str, _Cursor]] = []  # (first ident text, cursor past it)
    opened = closed = False
    for lineno, raw in enumerate(lines, start=1):
        cur = p.tokenize(raw, lineno)
        head = cur.next()
        if head.kind == "END":
            continue
        if not opened:
            if head.text == "olog":
                t = p.attempt(p.expect, cur, "IDENT", what="the olog name")
                if t is not None:
                    name = t.text
                p.attempt(p.expect, cur, "OP", "{")
                p.expect_end(cur)
                opened = True
            else:
                p.error("expected 'olog <Name> {'", head.span)
        elif closed:
            p.error("content after closing '}'", head.span)
        elif head.text == "}":
            p.expect_end(cur)
            closed = True
        else:
            body.append((head.text, cur))
    if opened and not closed:
        p.error("missing closing '}'", SourceSpan(filename, len(lines) or 1, 1))
    if not opened and not body and not has_errors(p.diagnostics):
        return Specification(Graph(), name=name), p.diagnostics

    types: list[TypeNode] = []
    aspects: list[tuple[Aspect, _Tok]] = []
    deferred: list[tuple[str, _Cursor]] = []
    seen_ids: set[str] = set()

    def declare(kind: str, ident: _Tok):
        errs = id_errors(kind, ident.text, seen_ids)
        if errs:
            p.fail(errs[0], ident.span)
        seen_ids.add(ident.text)

    for head, cur in body:
        try:
            if head == "type":
                ident = p.expect(cur, "IDENT", what="a type id")
                label_tok = p.attempt(p.expect, cur, "STRING", what="a quoted label")
                p.expect_end(cur)
                if label_tok is None:
                    continue
                declare("type", ident)
                label = label_tok.text[1:-1]
                errs = label_errors("type", ident.text, label)
                if errs:
                    p.fail(errs[0], label_tok.span)
                lints = _label_lints(label)
                for flag in sorted(lints):
                    p.warn(f"type '{ident.text}': style lint {flag}", label_tok.span)
                types.append(TypeNode(ident.text, label, lints))
            elif head == "aspect":
                ident = p.expect(cur, "IDENT", what="an aspect id")
                p.expect(cur, "OP", ":")
                src = p.expect(cur, "IDENT", what="a source type id")
                p.expect(cur, "OP", "->")
                tgt = p.expect(cur, "IDENT", what="a target type id")
                label = cur.next().text[1:-1] if cur.peek().kind == "STRING" else ""
                mods = set()
                while cur.peek().kind != "END":
                    t = cur.next()
                    if t.text not in MODIFIERS:
                        p.error(f"unexpected '{t.text}' after aspect", t.span)
                        break
                    mods.add(t.text)
                declare("aspect", ident)
                aspect = Aspect(ident.text, src.text, tgt.text, label, frozenset(mods))
                aspects.append((aspect, ident))
            elif head in ("fact", "product", "pullback", "coproduct", "pushout",
                          "singleton", "empty", "image"):
                deferred.append((head, cur))
            else:
                p.error(f"unknown declaration '{head}'", cur.toks[0].span)
        except _Stop:
            pass

    graph = Graph(types=tuple(types), aspects=tuple(a for a, _ in aspects))
    for a, ident in aspects:
        for msg in endpoint_errors(graph, a):
            p.error(msg, ident.span)

    facts: list[Fact] = []
    sketch: list = []
    for head, cur in deferred:
        try:
            if head == "fact":
                facts.append(_parse_fact(p, graph, cur))
            else:
                decl = _parse_sketch_decl(p, graph, head, cur)
                for msg in decl_errors(graph, decl):
                    p.error(msg, cur.toks[0].span)
                sketch.append(decl)
        except _Stop:
            pass

    if has_errors(p.diagnostics):
        return None, p.diagnostics

    spec = Specification(
        graph=graph, facts=tuple(facts), sketch=tuple(sketch), name=name
    )
    for msg in missing_square_facts(spec):
        p.warn(msg, SourceSpan(filename, 1, 1))
    return spec, p.diagnostics


def _parse_fact(p: _Parser, graph: Graph, cur: _Cursor) -> Fact:
    """``path = path``; the whole line is read before either side is resolved."""
    lhs_got = p.parse_path_tokens(cur)
    p.expect(cur, "OP", "=")
    rhs_got = p.parse_path_tokens(cur)
    p.expect_end(cur)
    (lhs, lhs_end), (rhs, rhs_end) = _resolve_paths(p, graph, (lhs_got, rhs_got))
    fact = Fact(lhs, rhs)
    errs = parallel_errors(fact, lhs_end, rhs_end)
    if errs:
        p.fail(errs[0], lhs_got[1])
    return fact


def _parse_id_tuple(p: _Parser, cur: _Cursor) -> list[_Tok]:
    p.expect(cur, "OP", "(")
    out: list[_Tok] = []
    if cur.peek().text == ")":
        cur.next()
        return out
    while True:
        out.append(p.expect(cur, "IDENT", what="an aspect id"))
        t = cur.next()
        if t.text == ")":
            return out
        if t.text != ",":
            p.fail(f"expected ',' or ')', found {t.found}", t.span)


def _parse_path_tuple(p: _Parser, cur: _Cursor, n: int):
    """n comma-separated paths in parentheses."""
    p.expect(cur, "OP", "(")
    out = []
    for i in range(n):
        if i:
            p.expect(cur, "OP", ",")
        out.append(p.parse_path_tokens(cur))
    p.expect(cur, "OP", ")")
    return out


# keyword: (declaration, operator, part, arrow from the target or into it)
_NARY = {
    "product": (ProductDecl, "*", "factor", "projection"),
    "coproduct": (CoproductDecl, "+", "summand", "inclusion"),
}


def _parse_nary(p: _Parser, head: str, target: _Tok, cur: _Cursor):
    """``A <op> B ... via (a,b,...)``: one part type and one arrow per part."""
    cls, op, part, arrow = _NARY[head]
    parts = [p.expect(cur, "IDENT", what=f"a {part} type id")]
    while cur.peek().text == op:
        cur.next()
        parts.append(p.expect(cur, "IDENT", what=f"a {part} type id"))
    p.expect(cur, "IDENT", "via")
    arrows = p.attempt(_parse_id_tuple, p, cur)
    p.expect_end(cur)
    if arrows is None or len(arrows) != len(parts):
        p.fail(f"{head} needs one {arrow} per {part}", cur.toks[-1].span)
    return cls(target.text, tuple((t.text, a.text) for t, a in zip(parts, arrows)))


def _parse_square_legs(p: _Parser, cur: _Cursor, op: str, apex_what: str):
    """``B <op>A C via``: the tokens of B, A and C."""
    b = p.expect(cur, "IDENT", what="a leg type id")
    p.expect(cur, "OP", op)
    apex = p.expect(cur, "IDENT", what=apex_what)
    c = p.expect(cur, "IDENT", what="a leg type id")
    p.expect(cur, "IDENT", "via")
    return b, apex, c


def _parse_sketch_decl(p: _Parser, graph: Graph, head: str, cur: _Cursor):
    if head in ("singleton", "empty"):
        ident = p.attempt(p.expect, cur, "IDENT", what="a type id")
        p.expect_end(cur)
        if ident is None:
            raise _Stop
        return (ProductDecl if head == "singleton" else CoproductDecl)(ident.text, ())

    target = p.expect(cur, "IDENT", what="a target type id")

    if head == "image":
        p.expect(cur, "IDENT", "of")
        got = p.parse_path_tokens(cur)
        p.expect(cur, "IDENT", "via")
        pair = p.attempt(_parse_id_tuple, p, cur)
        p.expect_end(cur)
        if pair is None:
            raise _Stop
        if len(pair) != 2:
            p.fail("image needs exactly two aspects in 'via'", cur.peek().span)
        of, _ = _resolve_path(p, graph, *got)
        return ImageDecl(target.text, of, pair[0].text, pair[1].text)

    p.expect(cur, "OP", "=")

    if head in _NARY:
        return _parse_nary(p, head, target, cur)

    if head == "pullback":
        b, apex, c = _parse_square_legs(p, cur, "*_", "the cospan target type id")
        cospan = _parse_path_tuple(p, cur, 2)
        p.expect(cur, "IDENT", "legs")
        legs = p.attempt(_parse_id_tuple, p, cur)
        p.expect_end(cur)
        if legs is None or len(legs) != 2:
            p.fail("pullback needs exactly two leg projections", cur.toks[-1].span)
        (pf, pf_end), (pg, pg_end) = _resolve_paths(p, graph, cospan)
        if pf_end != apex.text or pg_end != apex.text:
            p.error(f"cospan paths must end at '{apex.text}'", cospan[0][1])
        return PullbackDecl(
            target.text,
            (b.text, legs[0].text),
            (c.text, legs[1].text),
            (pf, pg),
        )

    # pushout
    b, apex, c = _parse_square_legs(p, cur, "+_", "the span source type id")
    incls = p.attempt(_parse_id_tuple, p, cur)
    if incls is None or len(incls) != 2:
        p.fail("pushout needs exactly two inclusions", cur.toks[-1].span)
    p.expect(cur, "IDENT", "span")
    span_paths = p.attempt(_parse_path_tuple, p, cur, 2)
    p.expect_end(cur)
    if span_paths is None:
        raise _Stop
    (pf, _), (pg, _) = _resolve_paths(p, graph, span_paths)
    if pf.source != apex.text or pg.source != apex.text:
        p.error(f"span paths must start at '{apex.text}'", span_paths[0][1])
    return PushoutDecl(
        target.text,
        (b.text, incls[0].text),
        (c.text, incls[1].text),
        (pf, pg),
    )


# ---------------------------------------------------------------------------
# Printing


def format_decl(graph: Graph, decl) -> str:
    if decl.kind in ("singleton", "empty"):
        return f"{decl.kind} {decl.target}"
    if isinstance(decl, ImageDecl):
        return (
            f"image {decl.target} of {format_path(decl.of)} "
            f"via ({decl.surjection},{decl.injection})"
        )
    parts = legs(decl)
    types = [t for t, _ in parts]
    arrows = ",".join(a for _, a in parts)
    if decl.kind in _NARY:
        op = f" {_NARY[decl.kind][1]} "
        return f"{decl.kind} {decl.target} = {op.join(types)} via ({arrows})"
    b, c = types
    if isinstance(decl, PullbackDecl):
        apex = path_target(graph, decl.cospan[0])
        f, g = map(format_path, decl.cospan)
        return f"pullback {decl.target} = {b} *_{apex} {c} via ({f},{g}) legs ({arrows})"
    apex = decl.span[0].source
    f, g = map(format_path, decl.span)
    return f"pushout {decl.target} = {b} +_{apex} {c} via ({arrows}) span ({f},{g})"


def print_olog(spec: Specification) -> str:
    """Canonical text for a specification (sorted, LF line endings)."""
    lines = [f"olog {spec.name} {{"]
    for t in spec.graph.types:
        lines.append(f'  type {t.id} "{t.label}"')
    for a in spec.graph.aspects:
        mods = "".join(
            f" {m}" for m in ("injective", "surjective") if m in a.modifiers
        )
        lines.append(f'  aspect {a.id} : {a.src} -> {a.tgt} "{a.label}"{mods}')
    # A class of m paths gives m * m facts: format each distinct right side
    # once, and the head once per run of facts with one left side object.
    text: dict[Path, str] = {}
    last = head = None
    for lhs, rhs in spec.facts:
        if lhs is not last:
            last, head = lhs, f"  fact {format_path(lhs)} = "
        lines.append(head + (text.get(rhs) or text.setdefault(rhs, format_path(rhs))))
    for d in spec.sketch:
        lines.append("  " + format_decl(spec.graph, d))
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Fact text (CLI arguments)


def parse_fact_text(text: str, graph: Graph) -> Fact:
    """Parse a fact given as ``path = path`` against an existing graph."""
    p = _Parser("<fact>")
    fact = p.attempt(_parse_fact, p, graph, p.tokenize(text, 1))
    if has_errors(p.diagnostics):
        raise OlogError(
            "bad fact: " + "; ".join(d.message for d in p.diagnostics if d.severity == ERROR)
        )
    return fact


# ---------------------------------------------------------------------------
# .omap parsing


def parse_morphism(
    text: str,
    src: Specification,
    tgt: Specification,
    filename: str = "<omap>",
) -> tuple[GraphMorphism | None, list[ParseDiagnostic]]:
    """Parse a morphism mapping file between the graphs of two specifications.

    Every source type must be mapped to a target type and every source aspect
    to a target path with compatible endpoints.
    """
    from .flow import GraphMorphism, morphism_errors

    src_graph, tgt_graph = src.graph, tgt.graph
    p = _Parser(filename)
    type_map: dict[str, str] = {}
    aspect_map: dict[str, Path] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        cur = p.tokenize(raw, lineno)
        head = cur.next()
        if head.kind == "END":
            continue
        try:
            if head.text == "type":
                a = p.expect(cur, "IDENT", what="a source type id")
                p.expect(cur, "OP", "=>")
                b = p.attempt(p.expect, cur, "IDENT", what="a target type id")
                p.expect_end(cur)
                if b is None:
                    continue
                if not src_graph.has_type(a.text):
                    p.fail(f"unknown source type '{a.text}'", a.span)
                if not tgt_graph.has_type(b.text):
                    p.fail(f"unknown target type '{b.text}'", b.span)
                if a.text in type_map:
                    p.fail(f"type '{a.text}' mapped twice", a.span)
                type_map[a.text] = b.text
            elif head.text == "aspect":
                a = p.expect(cur, "IDENT", what="a source aspect id")
                p.expect(cur, "OP", "=>")
                got = p.attempt(p.parse_path_tokens, cur)
                p.expect_end(cur)
                if got is None:
                    continue
                if not src_graph.has_aspect(a.text):
                    p.fail(f"unknown source aspect '{a.text}'", a.span)
                img, _ = _resolve_path(p, tgt_graph, *got)
                if a.text in aspect_map:
                    p.fail(f"aspect '{a.text}' mapped twice", a.span)
                aspect_map[a.text] = img
            else:
                p.error(f"expected 'type' or 'aspect', found '{head.text}'", head.span)
        except _Stop:
            pass

    if has_errors(p.diagnostics):
        return None, p.diagnostics

    h = GraphMorphism(
        src=src_graph, tgt=tgt_graph, type_map=type_map, aspect_map=aspect_map
    )
    for msg in morphism_errors(h):
        p.error(msg, SourceSpan(filename, 1, 1))
    if has_errors(p.diagnostics):
        return None, p.diagnostics
    return h, p.diagnostics


# ---------------------------------------------------------------------------
# .osys parsing

_NODE_RE = re.compile(rf"node\s+({_ID})\s*=\s*(\S+)")
_EDGE_RE = re.compile(rf"edge\s+({_ID})\s*:\s*({_ID})\s*->\s*({_ID})\s*=\s*(\S+)")


def parse_system(
    path: str | FsPath, bound: int = DEFAULT_BOUND
) -> tuple[InformationSystem | None, list[ParseDiagnostic]]:
    """Parse a system file, loading the ologs and morphisms it references.

    File references resolve relative to the system file. Every edge morphism
    must preserve entailment at the given bound; failures are reported with
    the offending fact.
    """
    from .system import InformationSystem, Shape, validate_system

    path = FsPath(path)
    filename = str(path)
    p = _Parser(filename)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the name
        p.error(f"cannot read system file: {exc}", SourceSpan(filename, 1, 1))
        return None, p.diagnostics

    node_files: dict[str, str] = {}
    edge_decls: list[tuple[str, str, str, str, SourceSpan]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # System files have no string literals, so a comment starts at the first `#`.
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        span = SourceSpan(filename, lineno, 1)
        m = _NODE_RE.fullmatch(line)
        if m:
            if m.group(1) in node_files:
                p.error(f"node '{m.group(1)}' declared twice", span)
            else:
                node_files[m.group(1)] = m.group(2)
            continue
        m = _EDGE_RE.fullmatch(line)
        if m:
            edge_decls.append((m.group(1), m.group(2), m.group(3), m.group(4), span))
            continue
        p.error("expected 'node <n> = <file>' or 'edge <e> : <n> -> <m> = <file>'", span)

    specs: dict[str, Specification] = {}
    for node, fname in sorted(node_files.items()):
        fpath = path.parent / fname
        try:
            spec_text = fpath.read_text(encoding="utf-8")
        except (OSError, ValueError) as exc:
            p.error(f"node '{node}': cannot read '{fname}': {exc}", SourceSpan(filename, 1, 1))
            continue
        spec, diags = parse_olog(spec_text, str(fpath))
        p.diagnostics.extend(diags)
        if spec is not None:
            specs[node] = spec

    constraints: dict[str, GraphMorphism] = {}
    edges: list[tuple[str, str, str]] = []
    seen_edges: set[str] = set()
    for eid, src, tgt, fname, span in edge_decls:
        if eid in seen_edges:
            p.error(f"edge '{eid}' declared twice", span)
            continue
        seen_edges.add(eid)
        if src not in node_files or tgt not in node_files:
            p.error(f"edge '{eid}' references an undeclared node", span)
            continue
        edges.append((eid, src, tgt))
        if src not in specs or tgt not in specs:
            continue
        fpath = path.parent / fname
        try:
            map_text = fpath.read_text(encoding="utf-8")
        except (OSError, ValueError) as exc:
            p.error(f"edge '{eid}': cannot read '{fname}': {exc}", span)
            continue
        h, diags = parse_morphism(map_text, specs[src], specs[tgt], str(fpath))
        p.diagnostics.extend(diags)
        if h is not None:
            constraints[eid] = h

    if has_errors(p.diagnostics):
        return None, p.diagnostics

    sys = InformationSystem(
        shape=Shape(nodes=tuple(node_files), edges=tuple(edges)),
        specs=specs,
        constraints=constraints,
    )
    for msg in validate_system(sys, bound):
        p.error(msg, SourceSpan(filename, 1, 1))
    if has_errors(p.diagnostics):
        return None, p.diagnostics
    return sys, p.diagnostics
