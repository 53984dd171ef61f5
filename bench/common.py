"""Shared pieces of the benchmark: the span recorder and small statistics.

Nothing here imports ``olog``; the workload modules receive the library's
modules as arguments once the worker has imported them from the checkout.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from itertools import product


# The reference's median wall time on the machine the seed baseline was
# recorded on (2 vCPU Intel Xeon, Python 3.11). Set-up times are reported
# as seconds at that speed: wall time over the reference timed beside it,
# times this constant.
REF_SECONDS = 0.65


def median(values):
    return statistics.median(values) if values else 0.0


def reference(rounds: int = 10, length: int = 7, letters: str = "abc") -> int:
    """A fixed computation in plain Python that never touches ``olog``.

    It does the kind of work the library does (tuples as words, a dict
    union-find, every pair within each class) so that its speed follows the
    machine's. Timing it next to each job and CLI round turns their times into
    multiples of this one, which cancels the drift of a shared CPU's speed.
    Pairs are built one class at a time so that its memory stays small next
    to the workloads'. Returns the number of pairs, so the work cannot be
    skipped.
    """
    total = 0
    for _ in range(rounds):
        words = [w for n in range(length + 1) for w in product(letters, repeat=n)]
        parent = {w: w for w in words}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for w in words:
            for i in range(len(w) - 1):
                if w[i] > w[i + 1]:
                    a, b = find(w), find(w[:i] + (w[i + 1], w[i]) + w[i + 2:])
                    if a != b:
                        parent[max(a, b)] = min(a, b)
        classes: dict[tuple, list] = {}
        for w in words:
            classes.setdefault(find(w), []).append(w)
        for c in classes.values():
            total += len([(p, q) for p in c for q in c])
    return total


class Tracer:
    """Spans around the calls the benchmark makes into the library.

    A span is ``[name, start, end, parent, job]``: ``parent`` is the index of
    the enclosing span (or None) and ``job`` the id of the job or CLI round it
    belongs to. Spans stay in memory until the run ends. When disabled,
    :meth:`call` is a plain call and :meth:`span` records nothing.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.job]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        with self.span(name):
            return fn(*args)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time covered by its children."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out
