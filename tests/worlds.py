"""Random small instance worlds for each sketch-declaration kind."""

from __future__ import annotations

import random

from olog.core import Aspect, Graph, Path, TypeNode
from olog.instances import key_diagram
from olog.sketch import (
    CoproductDecl,
    ImageDecl,
    ProductDecl,
    PullbackDecl,
    PushoutDecl,
)

KINDS = ("product", "pullback", "coproduct", "pushout", "singleton", "empty", "image")


def random_world(rng: random.Random, kind: str, max_keys: int = 4):
    """A small random instance world for one declaration kind.

    Returns (graph, decl, diagram-with-empty-target). Participant sets hold
    at most ``max_keys`` keys.
    """
    top = max_keys
    def keys(prefix, n):
        return [f"{prefix}{i}" for i in range(n)]

    if kind in ("product", "singleton"):
        factors = 0 if kind == "singleton" else rng.randint(1, 3)
        types = [TypeNode("T", "a tuple holder")]
        aspects = []
        sets = {"T": []}
        funcs = {}
        legs = []
        for i in range(factors):
            tid = f"F{i}"
            types.append(TypeNode(tid, "a factor"))
            aid = f"p{i}"
            aspects.append(Aspect(aid, "T", tid, "yields"))
            sets[tid] = keys(f"f{i}_", rng.randint(1, top))
            funcs[aid] = {}
            legs.append((tid, aid))
        decl = ProductDecl("T", tuple(legs))
        g = Graph(types=tuple(types), aspects=tuple(aspects))
        return g, decl, key_diagram(sets, funcs)

    if kind == "pullback":
        nb, nc, nd = rng.randint(0, top), rng.randint(0, top), rng.randint(1, 3)
        g = Graph(
            types=(TypeNode("T", "a match"), TypeNode("B", "a left leg"),
                   TypeNode("C", "a right leg"), TypeNode("D", "a base")),
            aspects=(Aspect("qb", "T", "B", "yields"), Aspect("qc", "T", "C", "yields"),
                     Aspect("f", "B", "D", "has"), Aspect("g", "C", "D", "has")),
        )
        dk = keys("d", nd)
        sets = {"T": [], "B": keys("b", nb), "C": keys("c", nc), "D": dk}
        funcs = {
            "qb": {}, "qc": {},
            "f": {k: rng.choice(dk) for k in sets["B"]},
            "g": {k: rng.choice(dk) for k in sets["C"]},
        }
        decl = PullbackDecl("T", ("B", "qb"), ("C", "qc"),
                            (Path("B", ("f",)), Path("C", ("g",))))
        return g, decl, key_diagram(sets, funcs)

    if kind in ("coproduct", "empty"):
        summands = 0 if kind == "empty" else rng.randint(1, 3)
        types = [TypeNode("T", "a tagged union")]
        aspects = []
        sets = {"T": []}
        funcs = {}
        legs = []
        for i in range(summands):
            tid = f"S{i}"
            types.append(TypeNode(tid, "a summand"))
            aid = f"in{i}"
            aspects.append(Aspect(aid, tid, "T", "is"))
            sets[tid] = keys("shared_", rng.randint(0, min(3, top)))  # overlapping names
            funcs[aid] = {}
            legs.append((tid, aid))
        decl = CoproductDecl("T", tuple(legs))
        g = Graph(types=tuple(types), aspects=tuple(aspects))
        return g, decl, key_diagram(sets, funcs)

    if kind == "pushout":
        na, nb, nc = rng.randint(0, 3), rng.randint(1, top), rng.randint(1, top)
        g = Graph(
            types=(TypeNode("T", "a glued union"), TypeNode("A", "an overlap"),
                   TypeNode("B", "a left part"), TypeNode("C", "a right part")),
            aspects=(Aspect("f", "A", "B", "is"), Aspect("g", "A", "C", "is"),
                     Aspect("ib", "B", "T", "is"), Aspect("ic", "C", "T", "is")),
        )
        bk, ck = keys("b", nb), keys("c", nc)
        ak = keys("a", na)
        sets = {"T": [], "A": ak, "B": bk, "C": ck}
        funcs = {
            "f": {k: rng.choice(bk) for k in ak},
            "g": {k: rng.choice(ck) for k in ak},
            "ib": {}, "ic": {},
        }
        decl = PushoutDecl("T", ("B", "ib"), ("C", "ic"),
                           (Path("A", ("f",)), Path("A", ("g",))))
        return g, decl, key_diagram(sets, funcs)

    if kind == "image":
        na, nb = rng.randint(0, top), rng.randint(1, top)
        g = Graph(
            types=(TypeNode("T", "an image"), TypeNode("A", "a source"),
                   TypeNode("B", "a target")),
            aspects=(Aspect("f", "A", "B", "maps to"),
                     Aspect("fs", "A", "T", "maps onto"),
                     Aspect("fi", "T", "B", "is")),
        )
        bk = keys("b", nb)
        sets = {"T": [], "A": keys("a", na), "B": bk}
        funcs = {"f": {k: rng.choice(bk) for k in sets["A"]}, "fs": {}, "fi": {}}
        decl = ImageDecl("T", Path("A", ("f",)), "fs", "fi")
        return g, decl, key_diagram(sets, funcs)

    raise AssertionError(kind)
