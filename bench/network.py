"""The ``network`` workload: a W-shaped system of ologs fused over its core.

n communities and n portals hang off one reference node (2n+1 ``.olog``
files, 2n ``.omap`` files). Every node speaks about a type ``x`` with two
loops ``a`` and ``b`` and a tag ``t : x -> tag``. One community declares that
``a`` and ``b`` commute, another that ``a;t = b;t``; both facts must reach
every node through the core. The reference and the portals also share a
grid of commuting squares, so each portal is a mid-sized theory to saturate
and validating the system is a visible share of the work.

This workload runs the entailment engine as many small saturations (one per
edge, and the CLI ``consequence`` path validates more than once) rather than
one big one. Every expected answer is a closed form of the construction.
"""

from __future__ import annotations

import random
from math import comb
from pathlib import Path as FsPath

COMMUNITIES = 3
GRID = 4  # squares per side of the shared grid
BOUND = 5
ROLES = ("x", "tag", "a", "b", "t")


def monoid_counts(bound: int) -> tuple[int, int, int]:
    """(universe, classes, equations) of the tagged two-generator part.

    With ``a;b = b;a`` words from x to x are equal exactly when they use each
    loop equally often; with ``a;t = b;t`` as well, all words into the tag of
    one length are equal. The tag's identity is the last path.
    """
    universe = (2 ** (bound + 1) - 1) + (2**bound - 1) + 1
    classes = comb(bound + 2, 2) + bound + 1
    equations = sum(comb(2 * n, n) for n in range(bound + 1))
    equations += sum(4**n for n in range(bound)) + 1
    return universe, classes, equations


def grid_counts(side: int, bound: int) -> tuple[int, int, int]:
    """(universe, classes, equations) of a side x side grid of commuting squares.

    Paths from (i, j) to (i+di, j+dj) number C(di+dj, di) and are all equal.
    """
    universe = classes = equations = 0
    for i in range(side + 1):
        for j in range(side + 1):
            for di in range(side - i + 1):
                for dj in range(side - j + 1):
                    if di + dj <= bound:
                        n = comb(di + dj, di)
                        universe += n
                        classes += 1
                        equations += n * n
    return universe, classes, equations


def _grid_lines(side: int) -> list[str]:
    lines = []
    for i in range(side + 1):
        for j in range(side + 1):
            lines.append(f'  type g{i}_{j} "a grid point"')
    for i in range(side + 1):
        for j in range(side + 1):
            if i < side:
                lines.append(f'  aspect r{i}_{j} : g{i}_{j} -> g{i + 1}_{j} "is left of"')
            if j < side:
                lines.append(f'  aspect u{i}_{j} : g{i}_{j} -> g{i}_{j + 1} "is below"')
    for i in range(side):
        for j in range(side):
            lines.append(f"  fact r{i}_{j};u{i + 1}_{j} = u{i}_{j};r{i}_{j + 1}")
    return lines


def _grid_map(side: int) -> list[str]:
    lines = [f"type g{i}_{j} => g{i}_{j}" for i in range(side + 1) for j in range(side + 1)]
    for i in range(side + 1):
        for j in range(side + 1):
            if i < side:
                lines.append(f"aspect r{i}_{j} => r{i}_{j}")
            if j < side:
                lines.append(f"aspect u{i}_{j} => u{i}_{j}")
    return lines


class Network:
    name = "network"

    def __init__(self, seed: int, workdir: FsPath):
        rng = random.Random(f"network:{seed}")
        n = COMMUNITIES
        communities = [f"community{i}" for i in range(1, n + 1)]
        portals = [f"portal{i}" for i in range(1, n + 1)]
        self.nodes = ["reference"] + communities + portals
        tokens = rng.sample(range(100, 1000), len(self.nodes))
        ids = {v: {r: f"{r}_{tok}" for r in ROLES} for v, tok in zip(self.nodes, tokens)}
        commuting, tagged = rng.sample(range(n), 2)

        def monoid(v: str, facts: list[str]) -> list[str]:
            i = ids[v]
            lines = [
                f'  type {i["x"]} "a state"',
                f'  type {i["tag"]} "a tag"',
                f'  aspect {i["a"]} : {i["x"]} -> {i["x"]} "steps by a"',
                f'  aspect {i["b"]} : {i["x"]} -> {i["x"]} "steps by b"',
                f'  aspect {i["t"]} : {i["x"]} -> {i["tag"]} "is tagged as"',
            ]
            for f in facts:
                lines.append(f"  fact {f.format(**i)}")
            return lines

        def facts_of(k: int) -> list[str]:
            if k == commuting:
                return ["{a};{b} = {b};{a}"]
            if k == tagged:
                return ["{a};{t} = {b};{t}"]
            return []

        def write(name: str, lines: list[str]) -> None:
            (workdir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")

        def morphism(src: str, tgt: str) -> list[str]:
            return [
                f"{'type' if r in ('x', 'tag') else 'aspect'} {ids[src][r]} => {ids[tgt][r]}"
                for r in ROLES
            ]

        grid = _grid_lines(GRID)
        write("reference.olog", ["olog Reference {"] + monoid("reference", []) + grid + ["}"])
        system = ["node reference = reference.olog"]
        for k, (c, p) in enumerate(zip(communities, portals)):
            write(f"{c}.olog", [f"olog Community{k + 1} {{"] + monoid(c, facts_of(k)) + ["}"])
            write(f"{p}.olog", [f"olog Portal{k + 1} {{"] + monoid(p, facts_of(k)) + grid + ["}"])
            write(f"al{k + 1}.omap", morphism("reference", p) + _grid_map(GRID))
            write(f"pl{k + 1}.omap", morphism(c, p))
            system += [
                f"node {c} = {c}.olog",
                f"node {p} = {p}.olog",
                f"edge al{k + 1} : reference -> {p} = al{k + 1}.omap",
                f"edge pl{k + 1} : {c} -> {p} = pl{k + 1}.omap",
            ]
        rng.shuffle(system)
        write("system.osys", system)
        self.system_file = workdir / "system.osys"
        self.reference_file = workdir / "reference.olog"
        self.out_dir = workdir / "consequence"
        self.commuting_edge = (communities[commuting], portals[commuting], f"pl{commuting + 1}")

        mu, mc, me = monoid_counts(BOUND)
        gu, gc, ge = grid_counts(GRID, BOUND)
        self.expect = {
            "nodes": len(self.nodes),
            "edges": 2 * n,
            "core_types": 2 + (GRID + 1) ** 2,
            "core_aspects": 3 + 2 * GRID * (GRID + 1),
            "fused_facts": 2 + GRID * GRID,
            "universe": mu + gu,
            "classes": mc + gc,
            "reference_types": 2 + (GRID + 1) ** 2,
        }
        self.consequence = {
            v: me + (ge if v not in communities else 0) for v in self.nodes
        }

    def bind(self, olog) -> None:
        self.lib = olog
        self.reference_text = self.reference_file.read_text(encoding="utf-8")

    def job(self, tr) -> dict:
        dsl, system, flow, entail = self.lib.dsl, self.lib.system, self.lib.flow, self.lib.entail
        r = {}
        sysm, _ = tr.call("dsl.parse_system", dsl.parse_system, self.system_file, BOUND)
        r["system"] = sysm
        r["reference"], _ = tr.call(
            "dsl.parse_olog", dsl.parse_olog, self.reference_text, str(self.reference_file)
        )
        r["problems"] = tr.call("system.validate_system", system.validate_system, sysm, BOUND)
        src, tgt, eid = self.commuting_edge
        r["morphism"] = tr.call(
            "flow.is_spec_morphism", flow.is_spec_morphism,
            sysm.constraints[eid], sysm.specs[src], sysm.specs[tgt], BOUND,
        )
        r["channel"] = tr.call("system.optimal_channel", system.optimal_channel, sysm.distributed())
        fused = r["fused"] = tr.call("system.fusion", system.fusion, sysm, BOUND)
        r["cong"] = tr.call("entail.saturate", entail.saturate, fused, BOUND)
        cons = r["consequence"] = tr.call(
            "system.system_consequence", system.system_consequence, sysm, BOUND
        )
        r["printed"] = [tr.call("dsl.print_olog", dsl.print_olog, fused)]
        r["printed"] += [tr.call("dsl.print_olog", dsl.print_olog, cons[v]) for v in sorted(cons)]
        return r

    def check(self, r) -> list[tuple[str, bool]]:
        e = self.expect
        sysm, channel, cong, cons = r["system"], r["channel"], r["cong"], r["consequence"]
        counts = {v: len(spec.facts) for v, spec in cons.items()}
        printed_facts = [_fact_lines(text) for text in r["printed"]]
        want_printed = [e["fused_facts"]] + [self.consequence[v] for v in sorted(cons)]
        return [
            (
                "dsl.parse_system",
                sysm is not None
                and len(sysm.shape.nodes) == e["nodes"]
                and len(sysm.shape.edges) == e["edges"],
            ),
            ("dsl.parse_olog", len(r["reference"].graph.types) == e["reference_types"]),
            ("system.validate_system", r["problems"] == []),
            ("flow.is_spec_morphism", r["morphism"] == (True, ())),
            (
                "system.optimal_channel",
                len(channel.core.types) == e["core_types"]
                and len(channel.core.aspects) == e["core_aspects"],
            ),
            ("system.fusion", len(r["fused"].facts) == e["fused_facts"]),
            (
                "entail.saturate",
                len(cong.classes) == e["classes"]
                and sum(len(c) for c in cong.classes) == e["universe"],
            ),
            ("system.system_consequence", counts == self.consequence),
            ("dsl.print_olog", printed_facts == want_printed),
        ]

    def counts(self, r) -> dict:
        channel = r["channel"]
        return {
            "system.nodes": len(r["system"].shape.nodes),
            "system.edges": len(r["system"].shape.edges),
            "system.core_types": len(channel.core.types),
            "system.core_aspects": len(channel.core.aspects),
            "system.equations": sum(len(s.facts) for s in r["consequence"].values()),
            "entail.universe": sum(len(c) for c in r["cong"].classes),
            "entail.classes": len(r["cong"].classes),
        }

    def cli(self) -> list[tuple[str, list[str], int]]:
        bound = ["--bound", str(BOUND)]
        return [
            ("cli.fuse", ["fuse", str(self.system_file)] + bound, 0),
            (
                "cli.consequence",
                ["consequence", str(self.system_file), "--out-dir", str(self.out_dir)] + bound,
                0,
            ),
        ]

    def check_cli(self, name: str, stdout: str) -> bool:
        if name == "cli.fuse":
            return _fact_lines(stdout) == self.expect["fused_facts"]
        got = {}
        for v in self.nodes:
            target = self.out_dir / f"{v}.olog"
            got[v] = _fact_lines(target.read_text(encoding="utf-8")) if target.exists() else -1
            target.unlink(missing_ok=True)
        return got == self.consequence


def _fact_lines(text: str) -> int:
    return sum(line.startswith("  fact ") for line in text.splitlines())
