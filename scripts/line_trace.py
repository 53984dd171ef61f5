#!/usr/bin/env python3
"""List the lines of ``src/olog`` that no tier-1 test executes.

    python3 scripts/line_trace.py [PYTEST_ARGS ...]

Runs the tier-1 suite (``tests/``, or the pytest arguments given) in this
process under ``sys.settrace`` and ``threading.settrace``, recording each
line executed in a file of ``src/olog``. It then compiles every such file,
walks its code objects and prints ``file:line: text`` for each line of a
function body, as ``co_lines()`` gives them, that no test reached. Module
and class bodies are left out: they run at import. Only the standard
library and pytest are used, so it works where ``coverage`` is not
installed; it is a few times slower than the plain suite.

Tests that start a subprocess (an ``olog`` command run as its own process)
are not traced, so lines that only those tests reach are listed too.

The exit code is 0 whatever the suite or the trace finds: this reports and
does not gate.
"""

from __future__ import annotations

import inspect
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "olog"


def function_lines(code) -> set[int]:
    """The lines of every function body in ``code``'s nested code objects.

    A function's first line, its ``def`` or first decorator, holds only the
    call's prologue, which no line event reports; it is dropped unless it is
    the function's only line, as in a one-line lambda or generator.
    """
    lines: set[int] = set()
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_flags & inspect.CO_OPTIMIZED:
                own = {n for _, _, n in const.co_lines() if n is not None}
                if len(own) > 1:
                    own.discard(const.co_firstlineno)
                lines |= own
            lines |= function_lines(const)
    return lines


def main(argv: list[str]) -> int:
    files = {str(p): p for p in sorted(SRC.glob("*.py"))}
    seen: set[tuple[str, int]] = set()
    add = seen.add

    def local(frame, event, arg):
        if event == "line":
            add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    sys.path.insert(0, str(SRC.parent))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        pytest.main(argv or ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                             str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for name, path in files.items():
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        for n in sorted(function_lines(compile(text, name, "exec"))):
            if (name, n) not in seen:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{n}: {source[n - 1].strip()}")
    print(f"{missed} function lines of src/olog not executed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
