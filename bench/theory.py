"""The ``theory`` workload: bounded entailment on a free commutative monoid.

One type with k generators and every commuting fact. The bounded path
universe grows as k^b, so this workload loads the path enumeration, the
saturation and the all-pairs candidate loops of ``consequence``, ``inv_flow``
and ``intent``. It reads no CSV and builds no system, so instance-loading and
system changes should not move it.

Every expected answer is a closed form over the free commutative monoid:
two words are equal exactly when they use each generator equally often.
"""

from __future__ import annotations

import random
from collections import Counter
from math import factorial
from pathlib import Path as FsPath

K = 3  # generators of the monoid
SAT_BOUND = 7  # saturate and enumerate_paths
QUERY_BOUND = 4  # entails and spec_leq
QUERIES = 8
CONSEQUENCE_BOUND = 5
FLOW_BOUND = 5
INTENT_BOUND = 4
INTENT_KEYS = 8
CLI_BOUND = 8


def universe_size(k: int, bound: int) -> int:
    return sum(k**n for n in range(bound + 1))


def _compositions(n: int, k: int):
    if k == 1:
        yield (n,)
        return
    for i in range(n + 1):
        for rest in _compositions(n - i, k - 1):
            yield (i,) + rest


def multinomials(k: int, bound: int) -> list[int]:
    """Class sizes of the commutative monoid: one multinomial per multiset."""
    out = []
    for n in range(bound + 1):
        for parts in _compositions(n, k):
            m = factorial(n)
            for p in parts:
                m //= factorial(p)
            out.append(m)
    return out


def equation_count(k: int, bound: int) -> int:
    """Ordered pairs of equal words: the sum of squared multinomials."""
    return sum(m * m for m in multinomials(k, bound))


def intent_count(weights: list[int], keys: int, bound: int) -> int:
    """Pairs of words whose weighted generator counts agree modulo ``keys``.

    With generator i acting as rotation by ``weights[i]``, two words give the
    same function exactly when their weighted counts agree modulo ``keys``.
    """
    level = [0] * keys
    level[0] = 1
    total = level[:]
    for _ in range(bound):
        nxt = [0] * keys
        for r, c in enumerate(level):
            for w in weights:
                nxt[(r + w) % keys] += c
        level = nxt
        total = [a + b for a, b in zip(total, level)]
    return sum(c * c for c in total)


class Theory:
    name = "theory"

    def __init__(self, seed: int, workdir: FsPath):
        rng = random.Random(f"theory:{seed}")
        tokens = rng.sample(range(100, 1000), 8)
        self.obj = f"m{tokens[0]}"
        self.gens = [f"g{t}" for t in tokens[1 : 1 + K]]
        rng.shuffle(self.gens)
        self.copy_obj = f"c{tokens[4]}"
        self.copy_gens = [f"h{tokens[5]}", f"h{tokens[6]}"]
        self.copy_image = rng.sample(self.gens, 2)

        self.comm = []
        for i in range(K):
            for j in range(i + 1, K):
                a, b = self.gens[i], self.gens[j]
                if rng.random() < 0.5:
                    a, b = b, a
                self.comm.append(((a, b), (b, a)))
        self.removed = rng.randrange(len(self.comm))

        self.weights = rng.sample(range(1, INTENT_KEYS), K)
        self.key_names = [f"k{t}" for t in rng.sample(range(1000, 10000), INTENT_KEYS)]

        self.queries = []
        for q in range(QUERIES):
            u = rng.sample(self.gens, 2)
            u += [rng.choice(self.gens) for _ in range(rng.randint(0, QUERY_BOUND - 2))]
            rng.shuffle(u)
            v = u[:]
            if q % 2:
                i = rng.randrange(len(v))
                v[i] = rng.choice([g for g in self.gens if g != v[i]])
            else:
                i = next(i for i in range(len(v) - 1) if v[i] != v[i + 1])
                v[i], v[i + 1] = v[i + 1], v[i]
            self.queries.append((tuple(u), tuple(v)))

        word = [self.gens[i % K] for i in range(CLI_BOUND)]
        rng.shuffle(word)
        other = word[::-1]
        self.cli_fact = f"{';'.join(word)} = {';'.join(other)}"

        self.olog_file = workdir / "theory.olog"
        lines = [f"olog Monoid{tokens[7]} {{", f'  type {self.obj} "a state"']
        for g in self.gens:
            lines.append(f'  aspect {g} : {self.obj} -> {self.obj} "acts on"')
        for lhs, rhs in self.comm:
            lines.append(f"  fact {';'.join(lhs)} = {';'.join(rhs)}")
        lines.append("}")
        self.olog_file.write_text("\n".join(lines) + "\n", encoding="utf-8")

        self.classes = sorted(multinomials(K, SAT_BOUND))

    def bind(self, olog) -> None:
        core, flow, instances = olog.core, olog.flow, olog.instances
        self.lib = olog
        obj = self.obj
        graph = core.Graph(
            types=(core.TypeNode(obj, "a state"),),
            aspects=tuple(core.Aspect(g, obj, obj, "acts on") for g in self.gens),
        )
        edge = lambda word: core.Path(obj, tuple(word))  # noqa: E731
        self.graph = graph
        self.facts = [core.Fact(edge(lhs), edge(rhs)) for lhs, rhs in self.comm]
        self.spec = core.Specification(graph=graph, facts=tuple(self.facts), name="Monoid")
        self.query_facts = [core.Fact(edge(u), edge(v)) for u, v in self.queries]

        copy = core.Graph(
            types=(core.TypeNode(self.copy_obj, "a state"),),
            aspects=tuple(
                core.Aspect(h, self.copy_obj, self.copy_obj, "acts on") for h in self.copy_gens
            ),
        )
        self.copy_morphism = flow.GraphMorphism(
            src=copy,
            tgt=graph,
            type_map={self.copy_obj: obj},
            aspect_map={h: edge([g]) for h, g in zip(self.copy_gens, self.copy_image)},
        )

        names = self.key_names
        self.diagram = instances.key_diagram(
            {obj: names},
            {
                g: {names[r]: names[(r + w) % INTENT_KEYS] for r in range(INTENT_KEYS)}
                for g, w in zip(self.gens, self.weights)
            },
        )

    def job(self, tr) -> dict:
        core, entail, flow, instances = (
            self.lib.core, self.lib.entail, self.lib.flow, self.lib.instances,
        )
        spec, removed = self.spec, [self.facts[self.removed]]
        r = {}
        r["paths"] = tr.call("core.enumerate_paths", core.enumerate_paths, self.graph, SAT_BOUND)
        r["cong"] = tr.call("entail.saturate", entail.saturate, spec, SAT_BOUND)
        r["entails"] = [
            tr.call("entail.entails", entail.entails, spec, f, QUERY_BOUND)
            for f in self.query_facts
        ]
        contracted = tr.call("flow.lot_contract", flow.lot_contract, spec, removed)
        expanded = tr.call("flow.lot_expand", flow.lot_expand, contracted, removed)
        r["contracted"], r["expanded"] = contracted, expanded
        r["spec_leq"] = [
            tr.call("entail.spec_leq", entail.spec_leq, a, b, QUERY_BOUND)
            for a, b in ((spec, contracted), (contracted, spec), (expanded, spec))
        ]
        r["consequence"] = tr.call(
            "entail.consequence", entail.consequence, spec, CONSEQUENCE_BOUND
        )
        r["inv_flow"] = tr.call(
            "flow.inv_flow", flow.inv_flow, self.copy_morphism, spec.facts, FLOW_BOUND
        )
        r["intent"] = tr.call(
            "instances.intent", instances.intent, self.diagram, self.graph, INTENT_BOUND
        )
        return r

    def check(self, r) -> list[tuple[str, bool]]:
        entail = self.lib.entail
        out = [
            ("core.enumerate_paths", len(r["paths"]) == universe_size(K, SAT_BOUND)),
            (
                "entail.saturate",
                sorted(len(c) for c in r["cong"].classes) == self.classes
                and all(len({_multiset(p) for p in c}) == 1 for c in r["cong"].classes),
            ),
        ]
        for (u, v), got in zip(self.queries, r["entails"]):
            want = entail.ENTAILED if Counter(u) == Counter(v) else entail.NOT_DERIVABLE
            out.append(("entail.entails", got == want))
        out.append(("flow.lot_contract", len(r["contracted"].facts) == len(self.comm) - 1))
        out.append(("flow.lot_expand", set(r["expanded"].facts) == set(self.facts)))
        for got, want in zip(r["spec_leq"], (True, False, True)):
            out.append(("entail.spec_leq", got is want))
        want = equation_count(K, CONSEQUENCE_BOUND)
        out.append(("entail.consequence", _all_pairs(r["consequence"], want, _multiset)))
        image = dict(zip(self.copy_gens, self.copy_image))
        out.append(
            (
                "flow.inv_flow",
                _all_pairs(
                    r["inv_flow"],
                    equation_count(2, FLOW_BOUND),
                    lambda p: _multiset(p, image),
                ),
            )
        )
        weight = dict(zip(self.gens, self.weights))
        out.append(
            (
                "instances.intent",
                _all_pairs(
                    r["intent"],
                    intent_count(self.weights, INTENT_KEYS, INTENT_BOUND),
                    lambda p: sum(weight[e] for e in p.edges) % INTENT_KEYS,
                ),
            )
        )
        return out

    def counts(self, r) -> dict:
        u = universe_size(K, CONSEQUENCE_BOUND)
        iu = universe_size(K, INTENT_BOUND)
        return {
            "core.paths": len(r["paths"]),
            "entail.universe": len(r["cong"].universe),
            "entail.classes": len(r["cong"].classes),
            "entail.candidate_pairs": u * u,
            "entail.equations": len(r["consequence"]),
            "instances.intent_candidates": iu * iu,
            "instances.intent_equations": len(r["intent"]),
        }

    def cli(self) -> list[tuple[str, list[str], int]]:
        return [
            (
                "cli.entail",
                ["entail", str(self.olog_file), "--bound", str(CLI_BOUND),
                 "--fact", self.cli_fact, "--require-entailed"],
                0,
            )
        ]

    def check_cli(self, name: str, stdout: str) -> bool:
        return stdout.startswith(self.cli_fact + ": entailed")


def _multiset(path, rename=None):
    edges = path.edges if rename is None else [rename[e] for e in path.edges]
    return tuple(sorted(edges))


def _all_pairs(facts, want: int, key) -> bool:
    """``facts`` are ``want`` distinct pairs, each with equal keys on both sides.

    Together with the count this pins the set down exactly, since ``want`` is
    the number of such pairs in the bounded universe.
    """
    return len(set(facts)) == len(facts) == want and all(
        key(f.lhs) == key(f.rhs) for f in facts
    )
