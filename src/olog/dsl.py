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
# Each match is one token after any blanks: a string, a comment, an id or an
# operator in its one group, or an unexpected character outside it, which
# ``findall`` gives as "". No token starts with a blank or a line break.
_TOKEN_RE = re.compile(
    rf"""
    [ \t]*(?:("[^"\n]*" | \#(?s:.*) | {_ID} | ->|=>|\*_|\+_|[{{}}();,=:*+]) | [^ \t\n])
    """,
    re.VERBOSE,
)

# The token after a line's last, found as "end of line". A token's kind is
# read from its text: a string opens with `"`, an id is an identifier, and
# any other token is an operator.
END = ""


class _Stop(Exception):
    """A reader reported an error and gives up the rest of its line. A reader
    of tokens gives the index after the token it stopped at, so a caller that
    checks the rest of the line knows where to go on."""


class _Parser:
    """A diagnostics sink, and the line being read. Tokens are indexed in
    their line's list; a diagnostic finds its token's column by scanning the
    line again."""

    def __init__(self, filename: str):
        self.filename = filename
        self.diagnostics: list[ParseDiagnostic] = []

    def tokenize(self, line: str, lineno: int) -> list[str]:
        """The tokens of ``line`` and then END; it becomes the line being read.
        Each unexpected character is an error and dropped."""
        self.line = (line, lineno)
        toks = _TOKEN_RE.findall(line)
        if toks and toks[-1][:1] == "#":
            toks.pop()
        if END in toks:
            for m in _TOKEN_RE.finditer(line):
                if m[1] is None:
                    at = SourceSpan(self.filename, lineno, m.end())
                    self.error(f"unexpected character '{m[0][-1]}'", at)
            toks = [t for t in toks if t]
        toks.append(END)
        return toks

    def span(self, k: int) -> SourceSpan:
        """Where token k of the line being read starts; column 1 for END."""
        line, lineno = self.line
        starts = [m.start(1) for m in _TOKEN_RE.finditer(line) if m[1] and m[1][0] != "#"]
        return SourceSpan(self.filename, lineno, starts[k] + 1 if k < len(starts) else 1)

    def error(self, message: str, at: SourceSpan):
        self.diagnostics.append(ParseDiagnostic(ERROR, message, at))

    def warn(self, message: str, at: SourceSpan):
        self.diagnostics.append(ParseDiagnostic(WARNING, message, at))

    def fail(self, message: str, at: SourceSpan):
        self.error(message, at)
        raise _Stop

    def missing(self, toks: list[str], k: int, what: str) -> int:
        """Report that token k is not ``what``; the index after it, or k at END."""
        t = toks[k]
        found = "end of line" if t == END else f"'{t}'"
        self.error(f"expected {what}, found {found}", self.span(k))
        return k + (t != END)

    def attempt(self, read, *args) -> tuple[int, bool]:
        """The index ``read(*args)`` stops at, and whether it read all it
        wanted; for a step after which the rest of the line is still checked."""
        try:
            return read(*args), True
        except _Stop as stop:
            return stop.args[0], False

    def seq(self, toks: list[str], i: int, *wants: str) -> int:
        """Read ``wants`` from token i on: the index after them. A want with a
        blank in it names an id, and any other is a token's text."""
        for want in wants:
            if toks[i].isidentifier() if " " in want else toks[i] == want:
                i += 1
            else:
                raise _Stop(self.missing(toks, i, want if " " in want else f"'{want}'"))
        return i

    def end(self, toks: list[str], i: int):
        if toks[i] != END:
            self.error(f"unexpected trailing '{toks[i]}'", self.span(i))

    def path(self, toks: list[str], i: int) -> int:
        """Read one path from token i, `id(T)` or `a;b;c`: the index after it."""
        if not toks[i].isidentifier():
            raise _Stop(self.missing(toks, i, "a path"))
        if toks[i] == "id":
            return self.seq(toks, i + 1, "(", "a type id", ")")
        i += 1
        while toks[i] == ";":
            i = self.seq(toks, i + 1, "an aspect id")
        return i


def _resolve_path(p: _Parser, graph: Graph, toks: list[str], i: int, j: int) -> tuple[Path, str]:
    """The path that tokens i to j name and the type where it ends."""
    if toks[i] == "id":
        tid = toks[i + 2]
        if not graph.has_type(tid):
            p.fail(f"unknown type '{tid}'", p.span(i + 2))
        return Path(tid, ()), tid
    edges = toks[i:j:2]
    for k, a in enumerate(edges):
        if a not in graph.aspect_by_id:
            p.fail(f"unknown aspect '{a}'", p.span(i + 2 * k))
    path = Path(graph.aspect_by_id[edges[0]].src, tuple(edges))
    try:
        return path, path_target(graph, path)
    except OlogError as exc:
        p.fail(str(exc), p.span(i))


def _resolve_paths(p: _Parser, graph: Graph, toks: list[str], got) -> list[tuple[Path, str]]:
    """Resolve each (i, j) path of a declaration, reporting every one that fails."""
    paths = []
    for i, j in got:
        try:
            paths.append(_resolve_path(p, graph, toks, i, j))
        except _Stop:
            paths.append(None)
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
    body: list[tuple[list[str], tuple[str, int]]] = []  # (tokens, line)
    opened = closed = False
    for lineno, raw in enumerate(lines, start=1):
        toks = p.tokenize(raw, lineno)
        head = toks[0]
        if head == END:
            continue
        if not opened:
            if head == "olog":
                i, named = p.attempt(p.seq, toks, 1, "the olog name")
                if named:
                    name = toks[1]
                p.end(toks, p.attempt(p.seq, toks, i, "{")[0])
                opened = True
            else:
                p.error("expected 'olog <Name> {'", p.span(0))
        elif closed:
            p.error("content after closing '}'", p.span(0))
        elif head == "}":
            p.end(toks, 1)
            closed = True
        else:
            body.append((toks, p.line))
    if opened and not closed:
        p.error("missing closing '}'", SourceSpan(filename, len(lines) or 1, 1))
    if not opened and not body and not has_errors(p.diagnostics):
        return Specification(Graph(), name=name), p.diagnostics

    types: list[TypeNode] = []
    aspects: list[tuple[Aspect, tuple[str, int]]] = []
    deferred: list[tuple[list[str], tuple[str, int]]] = []
    seen_ids: set[str] = set()

    def declare(kind: str, ident: str):
        errs = id_errors(kind, ident, seen_ids)
        if errs:
            p.fail(errs[0], p.span(1))
        seen_ids.add(ident)

    for toks, line in body:
        head, p.line = toks[0], line
        try:
            if head == "type":
                p.seq(toks, 1, "a type id")
                ident, label = toks[1], toks[2]
                if label[:1] != '"':
                    p.end(toks, p.missing(toks, 2, "a quoted label"))
                    continue
                p.end(toks, 3)
                declare("type", ident)
                label = label[1:-1]
                errs = label_errors("type", ident, label)
                if errs:
                    p.fail(errs[0], p.span(2))
                for flag in sorted(_label_lints(label)):
                    p.warn(f"type '{ident}': style lint {flag}", p.span(2))
                types.append(TypeNode(ident, label))
            elif head == "aspect":
                i = p.seq(toks, 1, "an aspect id", ":", "a source type id", "->",
                          "a target type id")
                quoted = toks[i][:1] == '"'
                label = toks[i][1:-1] if quoted else ""
                i = k = i + quoted
                while toks[k] in MODIFIERS:
                    k += 1
                if toks[k] != END:
                    p.error(f"unexpected '{toks[k]}' after aspect", p.span(k))
                declare("aspect", toks[1])
                aspect = Aspect(toks[1], toks[3], toks[5], label, frozenset(toks[i:k]))
                aspects.append((aspect, p.line))
            elif head in ("fact", "product", "pullback", "coproduct", "pushout",
                          "singleton", "empty", "image"):
                deferred.append((toks, p.line))
            else:
                p.error(f"unknown declaration '{head}'", p.span(0))
        except _Stop:
            pass

    graph = Graph(types=tuple(types), aspects=tuple(a for a, _ in aspects))
    for a, line in aspects:
        p.line = line
        for msg in endpoint_errors(graph, a):
            p.error(msg, p.span(1))

    facts: list[Fact] = []
    sketch: list = []
    for toks, line in deferred:
        p.line = line
        try:
            if toks[0] == "fact":
                facts.append(_parse_fact(p, graph, toks, 1))
            else:
                decl = _parse_sketch_decl(p, graph, toks)
                for msg in decl_errors(graph, decl):
                    p.error(msg, p.span(0))
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


def _parse_fact(p: _Parser, graph: Graph, toks: list[str], i: int) -> Fact:
    """``path = path`` from token i; the whole line is read before either
    side is resolved."""
    j = p.path(toks, i)
    k = p.seq(toks, j, "=")
    n = p.path(toks, k)
    p.end(toks, n)
    (lhs, lhs_end), (rhs, rhs_end) = _resolve_paths(p, graph, toks, ((i, j), (k, n)))
    fact = Fact(lhs, rhs)
    errs = parallel_errors(fact, lhs_end, rhs_end)
    if errs:
        p.fail(errs[0], p.span(i))
    return fact


def _parse_id_tuple(p: _Parser, toks: list[str], i: int) -> int:
    """``(a,b,...)`` from token i: the index j after it, so its ids are
    ``toks[i + 1:j - 1:2]``."""
    i = p.seq(toks, i, "(")
    if toks[i] == ")":
        return i + 1
    while True:
        i = p.seq(toks, i, "an aspect id")
        if toks[i] == ")":
            return i + 1
        if toks[i] != ",":
            raise _Stop(p.missing(toks, i, "',' or ')'"))
        i += 1


def _parse_path_pair(p: _Parser, toks: list[str], i: int, got: list) -> int:
    """``(path,path)`` from token i: the index after it. Each path's (first,
    after) token indices go to ``got``."""
    i = p.seq(toks, i, "(")
    j = p.path(toks, i)
    k = p.seq(toks, j, ",")
    n = p.path(toks, k)
    got += ((i, j), (k, n))
    return p.seq(toks, n, ")")


# keyword: (declaration, operator, part, arrow from the target or into it)
_NARY = {
    "product": (ProductDecl, "*", "factor", "projection"),
    "coproduct": (CoproductDecl, "+", "summand", "inclusion"),
}


def _parse_nary(p: _Parser, toks: list[str], i: int):
    """``A <op> B ... via (a,b,...)`` from token i: one part type and one
    arrow per part."""
    head, target = toks[0], toks[1]
    cls, op, part, arrow = _NARY[head]
    what = f"a {part} type id"
    parts = [toks[i]]
    i = p.seq(toks, i, what)
    while toks[i] == op:
        parts.append(toks[i + 1])
        i = p.seq(toks, i + 1, what)
    i = p.seq(toks, i, "via")
    j, read = p.attempt(_parse_id_tuple, p, toks, i)
    p.end(toks, j)
    arrows = toks[i + 1:j - 1:2]
    if not read or len(arrows) != len(parts):
        p.fail(f"{head} needs one {arrow} per {part}", p.span(len(toks) - 1))
    return cls(target, tuple(zip(parts, arrows)))


def _parse_sketch_decl(p: _Parser, graph: Graph, toks: list[str]):
    head, target = toks[0], toks[1]
    if head in ("singleton", "empty"):
        i, read = p.attempt(p.seq, toks, 1, "a type id")
        p.end(toks, i)
        if not read:
            raise _Stop
        return (ProductDecl if head == "singleton" else CoproductDecl)(target, ())

    i = p.seq(toks, 1, "a target type id")

    if head == "image":
        i = p.seq(toks, i, "of")
        j = p.path(toks, i)
        k = p.seq(toks, j, "via")
        n, read = p.attempt(_parse_id_tuple, p, toks, k)
        p.end(toks, n)
        if not read:
            raise _Stop
        pair = toks[k + 1:n - 1:2]
        if len(pair) != 2:
            p.fail("image needs exactly two aspects in 'via'", p.span(n))
        of, _ = _resolve_path(p, graph, toks, i, j)
        return ImageDecl(target, of, pair[0], pair[1])

    i = p.seq(toks, i, "=")

    if head in _NARY:
        return _parse_nary(p, toks, i)

    if head == "pullback":
        i = p.seq(toks, i, "a leg type id", "*_", "the cospan target type id",
                  "a leg type id", "via")
        b, apex, c = toks[i - 5], toks[i - 3], toks[i - 2]
        cospan: list = []
        i = p.seq(toks, _parse_path_pair(p, toks, i, cospan), "legs")
        j, read = p.attempt(_parse_id_tuple, p, toks, i)
        p.end(toks, j)
        legs = toks[i + 1:j - 1:2]
        if not read or len(legs) != 2:
            p.fail("pullback needs exactly two leg projections", p.span(len(toks) - 1))
        (pf, pf_end), (pg, pg_end) = _resolve_paths(p, graph, toks, cospan)
        if pf_end != apex or pg_end != apex:
            p.error(f"cospan paths must end at '{apex}'", p.span(cospan[0][0]))
        return PullbackDecl(target, (b, legs[0]), (c, legs[1]), (pf, pg))

    # pushout
    i = p.seq(toks, i, "a leg type id", "+_", "the span source type id",
              "a leg type id", "via")
    b, apex, c = toks[i - 5], toks[i - 3], toks[i - 2]
    j, read = p.attempt(_parse_id_tuple, p, toks, i)
    incls = toks[i + 1:j - 1:2]
    if not read or len(incls) != 2:
        p.fail("pushout needs exactly two inclusions", p.span(len(toks) - 1))
    span: list = []
    j, read = p.attempt(_parse_path_pair, p, toks, p.seq(toks, j, "span"), span)
    p.end(toks, j)
    if not read:
        raise _Stop
    (pf, _), (pg, _) = _resolve_paths(p, graph, toks, span)
    if pf.source != apex or pg.source != apex:
        p.error(f"span paths must start at '{apex}'", p.span(span[0][0]))
    return PushoutDecl(target, (b, incls[0]), (c, incls[1]), (pf, pg))


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
    try:
        fact = _parse_fact(p, graph, p.tokenize(text, 1), 0)
    except _Stop:
        fact = None
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
        toks = p.tokenize(raw, lineno)
        head = toks[0]
        if head == END:
            continue
        try:
            if head == "type":
                p.seq(toks, 1, "a source type id", "=>")
                i, read = p.attempt(p.seq, toks, 3, "a target type id")
                p.end(toks, i)
                if not read:
                    continue
                a, b = toks[1], toks[3]
                if not src_graph.has_type(a):
                    p.fail(f"unknown source type '{a}'", p.span(1))
                if not tgt_graph.has_type(b):
                    p.fail(f"unknown target type '{b}'", p.span(3))
                if a in type_map:
                    p.fail(f"type '{a}' mapped twice", p.span(1))
                type_map[a] = b
            elif head == "aspect":
                p.seq(toks, 1, "a source aspect id", "=>")
                i, read = p.attempt(p.path, toks, 3)
                p.end(toks, i)
                if not read:
                    continue
                a = toks[1]
                if not src_graph.has_aspect(a):
                    p.fail(f"unknown source aspect '{a}'", p.span(1))
                img, _ = _resolve_path(p, tgt_graph, toks, 3, i)
                if a in aspect_map:
                    p.fail(f"aspect '{a}' mapped twice", p.span(1))
                aspect_map[a] = img
            else:
                p.error(f"expected 'type' or 'aspect', found '{head}'", p.span(0))
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
