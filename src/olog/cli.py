"""Command-line entry point.

Exit codes: 0 success, 1 validation failure (a violated fact, a failed check,
or a non-entailed query under --require-entailed), 2 usage or parse errors.
Verdicts use a fixed vocabulary: satisfied, violated, entailed,
not-derivable-within-bound, check-passed, check-failed. With ``--format
json`` every verdict is one JSON object per line with stable keys.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path as FsPath

# Every command reads an olog, which loads dsl and core; each handler
# imports the other modules it runs, so a command loads only what it uses.
from . import dsl
from .core import DEFAULT_BOUND, Specification, format_fact, format_path, synthesized_aspects
from .errors import InstanceLoadError, OlogError


class _Out:
    def __init__(self, fmt: str, quiet: bool):
        self.fmt = fmt
        self.quiet = quiet

    def note(self, text: str):
        if not self.quiet and self.fmt == "text":
            print(text)

    def diagnostics(self, diags):
        """Parse errors always reach stderr; warnings only without --quiet."""
        for d in diags:
            if d.severity == dsl.ERROR or not self.quiet:
                print(d, file=sys.stderr)

    def verdict(self, record: dict, text: str):
        if self.fmt == "json":
            import json

            print(json.dumps(record, sort_keys=True))
        else:
            print(text)


def _read(path: str) -> str:
    try:
        return FsPath(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the name
        raise OlogError(f"cannot read '{path}': {exc}") from None


def _parsed(result, out: _Out):
    """The value of a parser's ``(value, diagnostics)``; exit 2 if it is None."""
    value, diags = result
    out.diagnostics(diags)
    if value is None:
        raise SystemExit(2)
    return value


def _load_spec(path: str, out: _Out) -> Specification:
    return _parsed(dsl.parse_olog(_read(path), path), out)


def _cmd_check(args, out: _Out) -> int:
    spec = _load_spec(args.olog, out)
    out.note(
        f"ok: {len(spec.graph.types)} types, {len(spec.graph.aspects)} aspects, "
        f"{len(spec.facts)} facts, {len(spec.sketch)} sketch declarations"
    )
    return 0


def _cmd_entail(args, out: _Out) -> int:
    from . import entail

    spec = _load_spec(args.olog, out)
    fact = dsl.parse_fact_text(args.fact, spec.graph)
    if max(len(fact.lhs), len(fact.rhs)) > args.bound:
        raise OlogError(
            f"fact '{format_fact(fact)}' has a side longer than bound {args.bound}; "
            f"raise --bound"
        )
    table = entail.class_table(spec, args.bound)
    lhs = table.state(fact.lhs)
    status = entail.ENTAILED if lhs == table.state(fact.rhs) else entail.NOT_DERIVABLE
    # The class representative is its root, the one path built here.
    witness = format_path(table.path(lhs)) if status == entail.ENTAILED else ""
    out.verdict(
        {
            "kind": "entailment",
            "fact": format_fact(fact),
            "status": status,
            "witness": witness,
            "bound": args.bound,
        },
        f"{format_fact(fact)}: {status}"
        + (f" (class representative {witness})" if witness else ""),
    )
    if args.require_entailed and status != entail.ENTAILED:
        return 1
    return 0


def _emit_fact_checks(report, out: _Out) -> bool:
    ok = True
    for check in report.checks:
        status = "satisfied" if check.satisfied else "violated"
        record = {
            "kind": "fact",
            "fact": format_fact(check.fact),
            "status": status,
        }
        line = f"fact {format_fact(check.fact)}: {status}"
        if not check.satisfied:
            ok = False
            ce = check.counterexamples[0]
            record["counterexample"] = {
                "key": ce.key,
                "lhs": ce.lhs_result,
                "rhs": ce.rhs_result,
            }
            line += f" (key '{ce.key}': {ce.lhs_result} vs {ce.rhs_result})"
        out.verdict(record, line)
    return ok


def _emit_sketch_checks(results, out: _Out) -> bool:
    ok = True
    for res in results:
        record = {
            "kind": res.kind,
            "subject": res.subject,
            "status": res.verdict,
        }
        line = f"{res.kind} {res.subject}: {res.verdict}"
        if not res.passed:
            ok = False
            record["witness"] = res.witness
            line += f" ({res.witness})"
        out.verdict(record, line)
    return ok


def _cmd_validate(args, out: _Out) -> int:
    from . import instances, sketch

    spec = _load_spec(args.olog, out)
    try:
        d = instances.load_instances(args.data, spec)
    except InstanceLoadError as exc:
        for msg in exc.problems:
            out.verdict({"kind": "load", "status": "error", "message": msg}, f"load error: {msg}")
        return 1
    ok = _emit_fact_checks(instances.satisfies_spec(d, spec), out)
    ok = _emit_sketch_checks(sketch.check_all(d, spec), out) and ok
    return 0 if ok else 1


def _render_table(spec: Specification, d, type_id: str) -> str:
    aspect_ids = [a.id for a in spec.graph.aspects_from.get(type_id, ())]
    lines = [",".join(["Id"] + aspect_ids)]
    for key in d.keys(type_id):
        row = [key] + [d.funcs[aid][key] for aid in aspect_ids]
        lines.append(",".join(_csv_cell(c) for c in row))
    return "\n".join(lines) + "\n"


def _cmd_synth(args, out: _Out) -> int:
    """Populate a declared construction from its participants.

    The target's table and the generated functions' columns are outputs, so
    they may be missing from the data directory; every other table must load
    cleanly. Writes the affected tables.
    """
    from . import instances, sketch

    spec = _load_spec(args.olog, out)
    decl = next((x for x in spec.sketch if x.target == args.decl), None)
    if decl is None:
        raise OlogError(f"no sketch declaration targets '{args.decl}'")
    generated = frozenset(synthesized_aspects(decl))
    ungenerated = [
        a.id for a in spec.graph.aspects_from.get(decl.target, ()) if a.id not in generated
    ]
    if ungenerated:
        print(
            f"cannot synthesize '{decl.target}': aspects not generated by the "
            f"declaration: {', '.join(ungenerated)}",
            file=sys.stderr,
        )
        return 1
    d, problems = instances.load_tables(
        args.data, spec,
        optional_types=frozenset({decl.target}),
        optional_aspects=generated,
    )
    if problems:
        for msg in problems:
            print(f"load error: {msg}", file=sys.stderr)
        return 1
    try:
        extended = sketch.synthesize(decl, d)
    except OlogError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    touched = [decl.target] + sorted(
        {spec.graph.aspect_by_id[aid].src for aid in generated} - {decl.target}
    )
    if args.out:
        for tid in touched:
            _write(FsPath(args.out) / f"{tid}.csv", _render_table(spec, extended, tid), out)
    else:
        for tid in touched:
            print(f"# table: {tid}")
            print(_render_table(spec, extended, tid), end="")
    return 0


def _csv_cell(cell: str) -> str:
    if any(c in cell for c in ',"\n\r'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _cmd_sqlgen(args, out: _Out) -> int:
    from . import sqlgen

    spec = _load_spec(args.olog, out)
    payload = sqlgen.emit_ddl(spec)
    if args.with_inserts:
        from . import instances

        try:
            d = instances.load_instances(args.with_inserts, spec)
        except InstanceLoadError as exc:
            for msg in exc.problems:
                print(f"load error: {msg}", file=sys.stderr)
            return 1
        payload += "\n" + sqlgen.emit_inserts(spec, d)
    return _write(args.out, payload, out)


def _load_morphism(source: str, target: str, morphism: str, out: _Out) -> tuple:
    src = _load_spec(source, out)
    tgt = _load_spec(target, out)
    h = _parsed(dsl.parse_morphism(_read(morphism), src, tgt, morphism), out)
    return h, src, tgt


def _write(path, payload: str, out: _Out) -> int:
    """Write ``payload`` to ``path``, creating its directory, and note it.

    Without a path (no ``-o``) the payload goes to stdout.
    """
    if not path:
        print(payload, end="")
        return 0
    target = FsPath(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(payload, encoding="utf-8")
    out.note(f"wrote {path}")
    return 0


def _cmd_flow(args, out: _Out) -> int:
    from . import flow

    h, src, tgt = _load_morphism(args.source, args.target, args.morphism, out)
    if args.direction == "dir":
        facts = flow.dir_flow(h, src.facts)
        result = Specification(graph=h.tgt, facts=facts, name=f"{tgt.name}_dir")
    else:
        facts = flow.inv_flow(h, tgt.facts, args.bound)
        result = Specification(graph=h.src, facts=facts, name=f"{src.name}_inv")
    return _write(args.out, dsl.print_olog(result), out)


def _cmd_morphism_check(args, out: _Out) -> int:
    from . import flow

    h, src, tgt = _load_morphism(args.source, args.target, args.morphism, out)
    ok, offenders = flow.is_spec_morphism(h, src, tgt, args.bound)
    record = {
        "kind": "morphism",
        "status": "check-passed" if ok else "check-failed",
        "offending": [format_fact(f) for f in offenders],
    }
    line = f"morphism {args.morphism}: {'check-passed' if ok else 'check-failed'}"
    if offenders:
        line += " (" + "; ".join(format_fact(f) for f in offenders) + ")"
    out.verdict(record, line)
    return 0 if ok else 1


def _cmd_fuse(args, out: _Out) -> int:
    from . import system

    sysm = _parsed(dsl.parse_system(args.system, args.bound), out)
    fused = system.fusion(sysm, args.bound)
    return _write(args.out, dsl.print_olog(fused), out)


def _cmd_consequence(args, out: _Out) -> int:
    from . import system

    sysm = _parsed(dsl.parse_system(args.system, args.bound), out)
    outdir = FsPath(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for node, spec in sorted(system.system_consequence(sysm, args.bound).items()):
        _write(outdir / f"{node}.olog", dsl.print_olog(spec), out)
    return 0


def _cmd_lot(args, out: _Out) -> int:
    from . import flow

    if args.move == "analogy":
        h, spec, tgt = _load_morphism(args.olog, args.target, args.morphism, out)
        return _write(args.out, dsl.print_olog(flow.lot_analogy(h, spec, name=tgt.name)), out)
    spec = _load_spec(args.olog, out)
    if args.move == "revise":
        dels = [dsl.parse_fact_text(f, spec.graph) for f in args.delete]
        adds = [dsl.parse_fact_text(f, spec.graph) for f in args.add]
        result = flow.lot_revise(spec, dels, adds)
    else:
        facts = [dsl.parse_fact_text(f, spec.graph) for f in args.fact]
        move = flow.lot_contract if args.move == "contract" else flow.lot_expand
        result = move(spec, facts)
    return _write(args.out, dsl.print_olog(result), out)


def _bound(text: str) -> int:
    """The type of ``--bound``: argparse turns a bad value into exit 2."""
    try:
        bound = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if bound < 1:
        raise argparse.ArgumentTypeError(f"bound must be a positive integer, got {bound}")
    return bound


class _Commands(argparse._SubParsersAction):
    """Subcommands whose parsers are configured only when one is run.

    ``@command(name, help)`` records a function that configures the parser of
    ``name``. The parent parser's help, usage and errors read only the names
    and the help lines, so they are the same as with every parser built.
    """

    def __init__(self, *args, parents, **kwargs):
        super().__init__(*args, **kwargs)
        self._parents = parents

    def command(self, name: str, help: str | None = None):
        def register(configure):
            if help is not None:
                self._choices_actions.append(self._ChoicesPseudoAction(name, (), help))
            self._name_parser_map[name] = configure
            return configure

        return register

    def __call__(self, parser, namespace, values, option_string=None):
        name = values[0]
        configure = self._name_parser_map[name]
        if not isinstance(configure, argparse.ArgumentParser):
            sub = self._parser_class(prog=f"{self._prog_prefix} {name}", parents=self._parents)
            configure(sub)
            self._name_parser_map[name] = sub
        super().__call__(parser, namespace, values, option_string)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="olog", description="Author, validate, and connect ologs."
    )
    parser.add_argument("--bound", type=_bound, default=DEFAULT_BOUND,
                        help="maximum path length for entailment (default 6)")
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--quiet", action="store_true")

    # The same flags are accepted after the subcommand; SUPPRESS keeps a
    # subparser from clobbering a value parsed by the main parser.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--bound", type=_bound, default=argparse.SUPPRESS)
    common.add_argument("--format", choices=["text", "json"], default=argparse.SUPPRESS)
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS)

    def commands(p: argparse.ArgumentParser, dest: str) -> _Commands:
        return p.add_subparsers(dest=dest, required=True, action=_Commands, parents=[common])

    sub = commands(parser, "command")

    @sub.command("check", help="parse and structurally validate an olog")
    def check(s):
        s.add_argument("olog")
        s.set_defaults(fn=_cmd_check)

    @sub.command("entail", help="decide one fact within the bound")
    def entail(s):
        s.add_argument("olog")
        s.add_argument("--fact", required=True, help='e.g. "parents;w = mother"')
        s.add_argument("--require-entailed", action="store_true",
                       help="exit 1 unless the fact is entailed")
        s.set_defaults(fn=_cmd_entail)

    @sub.command("validate", help="check instance data: facts and sketch checks")
    def validate(s):
        s.add_argument("olog")
        s.add_argument("--data", required=True, help="directory of <type>.csv tables")
        s.set_defaults(fn=_cmd_validate)

    @sub.command("synth", help="synthesize a sketch target from instance data")
    def synth(s):
        s.add_argument("olog")
        s.add_argument("--data", required=True)
        s.add_argument("--decl", required=True, help="target type of the declaration")
        s.add_argument("-o", "--out", help="directory for the generated tables")
        s.set_defaults(fn=_cmd_synth)

    @sub.command("sqlgen", help="emit a relational schema")
    def sqlgen(s):
        s.add_argument("olog")
        s.add_argument("-o", "--out")
        s.add_argument("--with-inserts", metavar="DATADIR")
        s.set_defaults(fn=_cmd_sqlgen)

    @sub.command("flow", help="move facts along a morphism")
    def flow(s):
        s.add_argument("direction", choices=["dir", "inv"])
        s.add_argument("--morphism", required=True)
        s.add_argument("--source", required=True, help="source .olog")
        s.add_argument("--target", required=True, help="target .olog")
        s.add_argument("-o", "--out")
        s.set_defaults(fn=_cmd_flow)

    @sub.command("morphism", help="morphism tools")
    def morphism(s):
        @commands(s, "subcommand").command("check", help="does the morphism preserve entailment?")
        def morphism_check(m):
            m.add_argument("--morphism", required=True)
            m.add_argument("--source", required=True)
            m.add_argument("--target", required=True)
            m.set_defaults(fn=_cmd_morphism_check)

    @sub.command("fuse", help="fuse a system onto its optimal core")
    def fuse(s):
        s.add_argument("system")
        s.add_argument("-o", "--out")
        s.set_defaults(fn=_cmd_fuse)

    @sub.command("consequence", help="system consequence, one olog per node")
    def consequence(s):
        s.add_argument("system")
        s.add_argument("--out-dir", required=True)
        s.set_defaults(fn=_cmd_consequence)

    # Each move's name is its ``move``, the dest of the move parsers.
    @sub.command("lot", help="lattice-of-theories moves")
    def lot(s):
        moves = commands(s, "move")

        def facts_move(m):
            m.add_argument("olog")
            m.add_argument("--fact", action="append", required=True)
            m.add_argument("-o", "--out")
            m.set_defaults(fn=_cmd_lot)

        moves.command("contract")(facts_move)
        moves.command("expand")(facts_move)

        @moves.command("revise")
        def revise(m):
            m.add_argument("olog")
            m.add_argument("--delete", action="append", default=[])
            m.add_argument("--add", action="append", default=[])
            m.add_argument("-o", "--out")
            m.set_defaults(fn=_cmd_lot)

        @moves.command("analogy")
        def analogy(m):
            m.add_argument("olog")
            m.add_argument("--morphism", required=True)
            m.add_argument("--target", required=True)
            m.add_argument("-o", "--out")
            m.set_defaults(fn=_cmd_lot)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args, _Out(args.format, args.quiet))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except OlogError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
