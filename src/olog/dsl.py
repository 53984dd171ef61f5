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
    KEYWORDS,
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
    fact_errors,
    format_path,
    legs,
    missing_square_facts,
    path_errors,
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


class _Cursor:
    def __init__(self, toks: list[_Tok], line_span: SourceSpan):
        self.toks = toks
        self.pos = 0
        self.line_span = line_span

    def peek(self) -> _Tok | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> _Tok | None:
        t = self.peek()
        if t is not None:
            self.pos += 1
        return t

    def span(self) -> SourceSpan:
        t = self.peek()
        return t.span if t is not None else self.line_span


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
        return _Cursor(toks, SourceSpan(file, lineno, 1))

    def error(self, message: str, at: SourceSpan):
        self.diagnostics.append(ParseDiagnostic(ERROR, message, at))

    def warn(self, message: str, at: SourceSpan):
        self.diagnostics.append(ParseDiagnostic(WARNING, message, at))

    def expect(
        self, cur: _Cursor, kind: str, text: str | None = None, what: str | None = None
    ) -> _Tok | None:
        t = cur.next()
        if what is None:
            what = f"'{text}'" if text is not None else kind.lower()
        if t is None:
            self.error(f"expected {what}, found end of line", cur.line_span)
            return None
        if t.kind != kind or (text is not None and t.text != text):
            self.error(f"expected {what}, found '{t.text}'", t.span)
            return None
        return t

    def expect_end(self, cur: _Cursor):
        t = cur.peek()
        if t is not None:
            self.error(f"unexpected trailing '{t.text}'", t.span)

    def parse_path_tokens(self, cur: _Cursor) -> tuple[list[_Tok], SourceSpan] | None:
        """Collect the tokens of one path: `id(T)` or `a;b;c`."""
        first = cur.peek()
        if first is None:
            self.error("expected a path, found end of line", cur.line_span)
            return None
        toks = [cur.next()]
        if first.kind == "IDENT" and first.text == "id":
            if self.expect(cur, "OP", "(") is None:
                return None
            t = self.expect(cur, "IDENT", what="a type id")
            if t is None:
                return None
            toks.append(t)
            if self.expect(cur, "OP", ")") is None:
                return None
            return toks, first.span
        if first.kind != "IDENT":
            self.error(f"expected a path, found '{first.text}'", first.span)
            return None
        while cur.peek() is not None and cur.peek().text == ";":
            cur.next()
            t = self.expect(cur, "IDENT", what="an aspect id")
            if t is None:
                return None
            toks.append(t)
        return toks, first.span


def _resolve_path(
    parser: _Parser, graph: Graph, toks: list[_Tok], span: SourceSpan
) -> Path | None:
    if toks[0].text == "id" and len(toks) == 2:
        tid = toks[1].text
        if not graph.has_type(tid):
            parser.error(f"unknown type '{tid}'", toks[1].span)
            return None
        return Path(tid, ())
    edges = []
    for t in toks:
        a = graph.aspect_by_id.get(t.text)
        if a is None:
            parser.error(f"unknown aspect '{t.text}'", t.span)
            return None
        edges.append(t.text)
    p = Path(graph.aspect_by_id[edges[0]].src, tuple(edges))
    errs = path_errors(graph, p)
    if errs:
        parser.error(errs[0], span)
        return None
    return p


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
        if not cur.toks:
            continue
        head = cur.toks[0]
        if not opened:
            if head.text == "olog":
                cur.next()
                t = p.expect(cur, "IDENT", what="the olog name")
                if t is not None:
                    name = t.text
                p.expect(cur, "OP", "{")
                p.expect_end(cur)
                opened = True
            else:
                p.error("expected 'olog <Name> {'", head.span)
            continue
        if closed:
            p.error("content after closing '}'", head.span)
            continue
        if head.text == "}":
            cur.next()
            p.expect_end(cur)
            closed = True
            continue
        cur.next()
        body.append((head.text, cur))
    if opened and not closed:
        p.error("missing closing '}'", SourceSpan(filename, len(lines) or 1, 1))
    if not opened and not body and not has_errors(p.diagnostics):
        return Specification(Graph(), name=name), p.diagnostics

    types: list[TypeNode] = []
    aspects: list[tuple[Aspect, _Tok]] = []
    deferred: list[tuple[str, _Cursor]] = []
    seen_ids: set[str] = set()

    def declare(ident: _Tok) -> bool:
        if ident.text in KEYWORDS:
            p.error(f"'{ident.text}' is reserved and cannot be an id", ident.span)
            return False
        if ident.text in seen_ids:
            p.error(f"duplicate declaration of '{ident.text}'", ident.span)
            return False
        seen_ids.add(ident.text)
        return True

    for head, cur in body:
        if head == "type":
            ident = p.expect(cur, "IDENT", what="a type id")
            if ident is None:
                continue
            label_tok = p.expect(cur, "STRING", what="a quoted label")
            p.expect_end(cur)
            if label_tok is None or not declare(ident):
                continue
            label = label_tok.text[1:-1]
            if not label:
                p.error(f"type '{ident.text}' has an empty label", label_tok.span)
                continue
            lints = _label_lints(label)
            for flag in sorted(lints):
                p.warn(f"type '{ident.text}': style lint {flag}", label_tok.span)
            types.append(TypeNode(id=ident.text, label=label, lint_flags=lints))
        elif head == "aspect":
            ident = p.expect(cur, "IDENT", what="an aspect id")
            if ident is None:
                continue
            if p.expect(cur, "OP", ":") is None:
                continue
            src = p.expect(cur, "IDENT", what="a source type id")
            if src is None or p.expect(cur, "OP", "->") is None:
                continue
            tgt = p.expect(cur, "IDENT", what="a target type id")
            if tgt is None:
                continue
            label = ""
            mods = set()
            t = cur.peek()
            if t is not None and t.kind == "STRING":
                cur.next()
                label = t.text[1:-1]
            while cur.peek() is not None:
                t = cur.next()
                if t.text in ("injective", "surjective"):
                    mods.add(t.text)
                else:
                    p.error(f"unexpected '{t.text}' after aspect", t.span)
                    break
            if not declare(ident):
                continue
            aspects.append(
                (
                    Aspect(
                        id=ident.text,
                        src=src.text,
                        tgt=tgt.text,
                        label=label,
                        modifiers=frozenset(mods),
                    ),
                    ident,
                )
            )
        elif head in ("fact", "product", "pullback", "coproduct", "pushout",
                      "singleton", "empty", "image"):
            deferred.append((head, cur))
        else:
            span = cur.toks[0].span if cur.toks else cur.line_span
            p.error(f"unknown declaration '{head}'", span)

    graph = Graph(types=tuple(types), aspects=tuple(a for a, _ in aspects))
    for a, ident in aspects:
        if not graph.has_type(a.src):
            p.error(f"aspect '{a.id}': unknown source type '{a.src}'", ident.span)
        if not graph.has_type(a.tgt):
            p.error(f"aspect '{a.id}': unknown target type '{a.tgt}'", ident.span)

    facts: list[Fact] = []
    sketch: list = []
    for head, cur in deferred:
        if head == "fact":
            fact = _parse_fact(p, graph, cur)
            if fact is not None:
                facts.append(fact)
        else:
            decl = _parse_sketch_decl(p, graph, head, cur)
            if decl is not None:
                for msg in decl_errors(graph, decl):
                    p.error(msg, cur.toks[0].span)
                sketch.append(decl)

    if has_errors(p.diagnostics):
        return None, p.diagnostics

    spec = Specification(
        graph=graph, facts=tuple(facts), sketch=tuple(sketch), name=name
    )
    for msg in missing_square_facts(spec):
        p.warn(msg, SourceSpan(filename, 1, 1))
    return spec, p.diagnostics


def _parse_fact(p: _Parser, graph: Graph, cur: _Cursor) -> Fact | None:
    """``path = path``; the whole line is read before either side is resolved."""
    lhs_got = p.parse_path_tokens(cur)
    if lhs_got is None or p.expect(cur, "OP", "=") is None:
        return None
    rhs_got = p.parse_path_tokens(cur)
    if rhs_got is None:
        return None
    p.expect_end(cur)
    lhs = _resolve_path(p, graph, *lhs_got)
    rhs = _resolve_path(p, graph, *rhs_got)
    if lhs is None or rhs is None:
        return None
    fact = Fact(lhs, rhs)
    errs = fact_errors(graph, fact)
    if errs:
        p.error(errs[0], lhs_got[1])
        return None
    return fact


def _parse_id_tuple(p: _Parser, cur: _Cursor) -> list[_Tok] | None:
    if p.expect(cur, "OP", "(") is None:
        return None
    out: list[_Tok] = []
    t = cur.peek()
    if t is not None and t.text == ")":
        cur.next()
        return out
    while True:
        t = p.expect(cur, "IDENT", what="an aspect id")
        if t is None:
            return None
        out.append(t)
        t = cur.next()
        if t is None:
            p.error("expected ',' or ')', found end of line", cur.line_span)
            return None
        if t.text == ")":
            return out
        if t.text != ",":
            p.error(f"expected ',' or ')', found '{t.text}'", t.span)
            return None


def _parse_path_tuple(p: _Parser, cur: _Cursor, n: int):
    """n comma-separated paths in parentheses."""
    if p.expect(cur, "OP", "(") is None:
        return None
    out = []
    for i in range(n):
        got = p.parse_path_tokens(cur)
        if got is None:
            return None
        out.append(got)
        if i < n - 1 and p.expect(cur, "OP", ",") is None:
            return None
    if p.expect(cur, "OP", ")") is None:
        return None
    return out


# keyword: (declaration, operator, part, arrow from the target or into it)
_NARY = {
    "product": (ProductDecl, "*", "factor", "projection"),
    "coproduct": (CoproductDecl, "+", "summand", "inclusion"),
}


def _parse_nary(p: _Parser, head: str, target: _Tok, cur: _Cursor):
    """``A <op> B ... via (a,b,...)``: one part type and one arrow per part."""
    cls, op, part, arrow = _NARY[head]
    parts = []
    while True:
        t = p.expect(cur, "IDENT", what=f"a {part} type id")
        if t is None:
            return None
        parts.append(t)
        if cur.peek() is None or cur.peek().text != op:
            break
        cur.next()
    if p.expect(cur, "IDENT", "via") is None:
        return None
    arrows = _parse_id_tuple(p, cur)
    p.expect_end(cur)
    if arrows is None or len(arrows) != len(parts):
        p.error(f"{head} needs one {arrow} per {part}", cur.line_span)
        return None
    return cls(target.text, tuple((t.text, a.text) for t, a in zip(parts, arrows)))


def _parse_square_legs(p: _Parser, cur: _Cursor, op: str, apex_what: str):
    """``B <op>A C via``: the tokens of B, A and C, or None."""
    b = p.expect(cur, "IDENT", what="a leg type id")
    if b is None or p.expect(cur, "OP", op) is None:
        return None
    apex = p.expect(cur, "IDENT", what=apex_what)
    if apex is None:
        return None
    c = p.expect(cur, "IDENT", what="a leg type id")
    if c is None or p.expect(cur, "IDENT", "via") is None:
        return None
    return b, apex, c


def _parse_sketch_decl(p: _Parser, graph: Graph, head: str, cur: _Cursor):
    if head in ("singleton", "empty"):
        ident = p.expect(cur, "IDENT", what="a type id")
        p.expect_end(cur)
        if ident is None:
            return None
        return (ProductDecl if head == "singleton" else CoproductDecl)(ident.text, ())

    target = p.expect(cur, "IDENT", what="a target type id")
    if target is None:
        return None

    if head == "image":
        if p.expect(cur, "IDENT", "of") is None:
            return None
        got = p.parse_path_tokens(cur)
        if got is None:
            return None
        ptoks, pspan = got
        if p.expect(cur, "IDENT", "via") is None:
            return None
        pair = _parse_id_tuple(p, cur)
        p.expect_end(cur)
        if pair is None or len(pair) != 2:
            if pair is not None:
                p.error("image needs exactly two aspects in 'via'", cur.span())
            return None
        of = _resolve_path(p, graph, ptoks, pspan)
        if of is None:
            return None
        return ImageDecl(target.text, of, pair[0].text, pair[1].text)

    if p.expect(cur, "OP", "=") is None:
        return None

    if head in _NARY:
        return _parse_nary(p, head, target, cur)

    if head == "pullback":
        square = _parse_square_legs(p, cur, "*_", "the cospan target type id")
        if square is None:
            return None
        b, apex, c = square
        cospan = _parse_path_tuple(p, cur, 2)
        if cospan is None or p.expect(cur, "IDENT", "legs") is None:
            return None
        legs = _parse_id_tuple(p, cur)
        p.expect_end(cur)
        if legs is None or len(legs) != 2:
            p.error("pullback needs exactly two leg projections", cur.line_span)
            return None
        pf = _resolve_path(p, graph, *cospan[0])
        pg = _resolve_path(p, graph, *cospan[1])
        if pf is None or pg is None:
            return None
        if path_target(graph, pf) != apex.text or path_target(graph, pg) != apex.text:
            p.error(f"cospan paths must end at '{apex.text}'", cospan[0][1])
        return PullbackDecl(
            target.text,
            (b.text, legs[0].text),
            (c.text, legs[1].text),
            (pf, pg),
        )

    # pushout
    square = _parse_square_legs(p, cur, "+_", "the span source type id")
    if square is None:
        return None
    b, apex, c = square
    incls = _parse_id_tuple(p, cur)
    if incls is None or len(incls) != 2:
        p.error("pushout needs exactly two inclusions", cur.line_span)
        return None
    if p.expect(cur, "IDENT", "span") is None:
        return None
    span_paths = _parse_path_tuple(p, cur, 2)
    p.expect_end(cur)
    if span_paths is None:
        return None
    pf = _resolve_path(p, graph, *span_paths[0])
    pg = _resolve_path(p, graph, *span_paths[1])
    if pf is None or pg is None:
        return None
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
    fact = _parse_fact(p, graph, p.tokenize(text, 1))
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
        if not cur.toks:
            continue
        head = cur.next()
        if head.text == "type":
            a = p.expect(cur, "IDENT", what="a source type id")
            if a is None or p.expect(cur, "OP", "=>") is None:
                continue
            b = p.expect(cur, "IDENT", what="a target type id")
            p.expect_end(cur)
            if b is None:
                continue
            if not src_graph.has_type(a.text):
                p.error(f"unknown source type '{a.text}'", a.span)
                continue
            if not tgt_graph.has_type(b.text):
                p.error(f"unknown target type '{b.text}'", b.span)
                continue
            if a.text in type_map:
                p.error(f"type '{a.text}' mapped twice", a.span)
                continue
            type_map[a.text] = b.text
        elif head.text == "aspect":
            a = p.expect(cur, "IDENT", what="a source aspect id")
            if a is None or p.expect(cur, "OP", "=>") is None:
                continue
            got = p.parse_path_tokens(cur)
            p.expect_end(cur)
            if got is None:
                continue
            if not src_graph.has_aspect(a.text):
                p.error(f"unknown source aspect '{a.text}'", a.span)
                continue
            img = _resolve_path(p, tgt_graph, *got)
            if img is None:
                continue
            if a.text in aspect_map:
                p.error(f"aspect '{a.text}' mapped twice", a.span)
                continue
            aspect_map[a.text] = img
        else:
            p.error(f"expected 'type' or 'aspect', found '{head.text}'", head.span)

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
