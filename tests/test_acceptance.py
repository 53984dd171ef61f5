"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line (run with -s to see them on success) and enforcing its stated
time budget.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from itertools import product as iter_product

from olog import dsl
from olog.cli import main as cli_main
from olog.core import (
    Aspect,
    Fact,
    Graph,
    Path,
    Specification,
    TypeNode,
    identity_path,
)
from olog.entail import ENTAILED, consequence, entails
from olog.flow import (
    dir_flow,
    inv_flow,
    is_spec_morphism,
    pullback_instances,
    translate_fact,
)
from olog.instances import (
    KeyDiagram,
    key_diagram,
    satisfies_fact,
    satisfies_spec,
)
from olog.sketch import (
    PullbackDecl,
    check_all,
    check_decl,
    check_injective,
    check_pullback,
    check_surjective,
    synthesize,
)
from olog.sqlgen import emit_ddl, emit_inserts
from olog.system import fusion, optimal_channel, system_consequence

from .conftest import FIXTURES, load_data, load_olog
from .oracles import colimit_classes, far_bound, naive_consequence, simulate_foreign_keys
from .worlds import KINDS, random_world


@contextmanager
def budget(criterion: str, seconds: float):
    t0 = time.monotonic()
    yield
    elapsed = time.monotonic() - t0
    assert elapsed < seconds, f"{criterion} exceeded {seconds}s ({elapsed:.2f}s)"
    print(f"{criterion}: PASS ({elapsed:.2f}s)")


def test_criterion_01_family_roundtrip(family_spec):
    with budget("criterion 01 family round-trip", 1.0):
        clean = load_data("data_family", family_spec)
        assert satisfies_spec(clean, family_spec).satisfied

        mutated = load_data("data_family_mutated", family_spec)
        report = satisfies_spec(mutated, family_spec)
        assert not report.satisfied
        ce = report.counterexamples[0]
        assert ce.key in ("Abel", "Cain")
        assert {ce.lhs_result, ce.rhs_result} == {"Steve", "Eve"}


def test_criterion_02_employee(employee_spec, employee_data):
    with budget("criterion 02 employee", 1.0):
        assert satisfies_spec(employee_data, employee_spec).satisfied
        derived = Fact(
            Path("employee", ("manager", "manager", "works_in")),
            Path("employee", ("works_in",)),
        )
        assert entails(employee_spec, derived, 3) == ENTAILED
        rc = cli_main(
            ["--quiet", "--bound", "3", "entail", str(FIXTURES / "employee.olog"),
             "--fact", "manager;manager;works_in = works_in"]
        )
        assert rc == 0


def test_criterion_03_factorial(factorial_spec):
    with budget("criterion 03 factorial", 1.0):
        true_arith = load_data("data_factorial", factorial_spec)
        assert satisfies_spec(true_arith, factorial_spec).satisfied
        assert true_arith.funcs["f"]["4"] == "24"

        triangle = load_data("data_factorial_triangle", factorial_spec)
        assert satisfies_spec(triangle, factorial_spec).satisfied
        assert triangle.funcs["f"]["4"] == "10"


def test_criterion_04_sketch_oracles():
    with budget("criterion 04 sketch semantics", 30.0):
        rng = random.Random("acceptance-sketch")
        per_kind = 200
        for kind in KINDS:
            for _ in range(per_kind):
                g, decl, d = random_world(rng, kind, max_keys=6)
                full = synthesize(decl, d)
                assert check_decl(full, g, decl).passed, kind

                if kind == "product":
                    want = set(
                        iter_product(*(sorted(d.sets[t]) for t, _ in decl.factors))
                    )
                    got = {
                        tuple(full.funcs[a][k] for _, a in decl.factors)
                        for k in full.sets["T"]
                    }
                    assert got == want and len(full.sets["T"]) == len(want)
                elif kind == "pullback":
                    want = {
                        (b, c)
                        for b in d.sets["B"]
                        for c in d.sets["C"]
                        if d.funcs["f"][b] == d.funcs["g"][c]
                    }
                    got = {
                        (full.funcs["qb"][k], full.funcs["qc"][k])
                        for k in full.sets["T"]
                    }
                    assert got == want
                elif kind == "coproduct":
                    want = sum(len(d.sets[t]) for t, _ in decl.summands)
                    assert len(full.sets["T"]) == want
                    tags = {k.split(":", 1)[0] for k in full.sets["T"]}
                    assert tags <= {f"in{a}" for _, a in decl.summands}
                elif kind == "pushout":
                    classes = [
                        {("B", b)} for b in d.sets["B"]
                    ] + [{("C", c)} for c in d.sets["C"]]
                    for a in d.sets["A"]:
                        fb = ("B", d.funcs["f"][a])
                        gc = ("C", d.funcs["g"][a])
                        touching = [cl for cl in classes if fb in cl or gc in cl]
                        merged = set().union(*touching) | {fb, gc}
                        classes = [cl for cl in classes if cl not in touching]
                        classes.append(merged)
                    assert len(full.sets["T"]) == len(classes)
                elif kind == "singleton":
                    assert len(full.sets["T"]) == 1
                elif kind == "empty":
                    assert len(full.sets["T"]) == 0
                elif kind == "image":
                    want_img = {d.funcs["f"][a] for a in d.sets["A"]}
                    assert full.sets["T"] == frozenset(want_img)

        # injective / surjective verdicts against brute-force definitions
        for _ in range(per_kind):
            n_src, n_tgt = rng.randint(0, 6), rng.randint(1, 6)
            g = Graph(
                types=(TypeNode("A", "a source"), TypeNode("B", "a target")),
                aspects=(Aspect("f", "A", "B", "maps to"),),
            )
            src = [f"a{i}" for i in range(n_src)]
            tgt = [f"b{i}" for i in range(n_tgt)]
            fn = {k: rng.choice(tgt) for k in src}
            d = key_diagram({"A": src, "B": tgt}, {"f": fn})
            assert check_injective(d, g, "f").passed == (
                len(set(fn.values())) == len(src)
            )
            assert check_surjective(d, g, "f").passed == (
                set(fn.values()) == set(tgt)
            )


def test_criterion_05_duck(duck_spec, duck_data):
    with budget("criterion 05 duck coproduct", 1.0):
        res = check_all(duck_data, duck_spec)
        assert all(r.passed for r in res)
        creatures = duck_data.sets["creature"]
        assert len(creatures) == len(duck_data.sets["flyer"]) + len(
            duck_data.sets["swimmer"]
        )
        assert duck_data.funcs["as_flyer"]["duck"] != duck_data.funcs["as_swimmer"]["duck"]
        assert {"inas_flyer:duck", "inas_swimmer:duck"} <= set(creatures)


def _double_square_world(rng: random.Random):
    """Random data over the two-square shape, both squares true pullbacks."""

    def keys(prefix, lo, hi):
        return [f"{prefix}{i}" for i in range(rng.randint(lo, hi))]

    g = Graph(
        types=tuple(TypeNode(f"o{i}", f"a stage {i}") for i in range(1, 7)),
        aspects=(
            Aspect("t1", "o1", "o3", "steps to"),
            Aspect("t2", "o3", "o5", "steps to"),
            Aspect("u", "o1", "o5", "jumps to"),
            Aspect("v1", "o1", "o2", "drops to"),
            Aspect("v3", "o3", "o4", "drops to"),
            Aspect("v5", "o5", "o6", "drops to"),
            Aspect("b1", "o2", "o4", "steps to"),
            Aspect("b2", "o4", "o6", "steps to"),
        ),
    )
    o2, o4, o6 = keys("p", 1, 4), keys("q", 1, 4), keys("r", 1, 3)
    o5 = keys("s", 0, 4)
    d = key_diagram(
        {"o1": [], "o2": o2, "o3": [], "o4": o4, "o5": o5, "o6": o6},
        {
            "b1": {k: rng.choice(o4) for k in o2},
            "b2": {k: rng.choice(o6) for k in o4},
            "v5": {k: rng.choice(o6) for k in o5},
            "t1": {}, "t2": {}, "u": {}, "v1": {}, "v3": {},
        },
    )
    right = PullbackDecl("o3", ("o4", "v3"), ("o5", "t2"),
                         (Path("o4", ("b2",)), Path("o5", ("v5",))))
    d = synthesize(right, d)
    left = PullbackDecl("o1", ("o2", "v1"), ("o3", "t1"),
                        (Path("o2", ("b1",)), Path("o3", ("v3",))))
    d = synthesize(left, d)

    # opaque relabeling so checks cannot lean on canonical key text
    def relabel(d: KeyDiagram, type_id: str, prefix: str) -> KeyDiagram:
        names = {k: f"{prefix}{i}" for i, k in enumerate(sorted(d.sets[type_id]))}
        sets = {**d.sets, type_id: frozenset(names.values())}
        funcs = {}
        for a in g.aspects:
            fn = d.funcs.get(a.id, {})
            out = dict(fn)
            if a.src == type_id:
                out = {names[k]: v for k, v in out.items()}
            if a.tgt == type_id:
                out = {k: names[v] for k, v in out.items()}
            funcs[a.id] = out
        return KeyDiagram(sets=sets, funcs=funcs)

    d = relabel(d, "o3", "m")
    d = relabel(d, "o1", "n")
    # the diagonal is the composite of the top edges
    u_fn = {k: d.funcs["t2"][d.funcs["t1"][k]] for k in d.sets["o1"]}
    d = KeyDiagram(sets=d.sets, funcs={**d.funcs, "u": u_fn})
    outer = PullbackDecl("o1", ("o2", "v1"), ("o5", "u"),
                         (Path("o2", ("b1", "b2")), Path("o5", ("v5",))))
    return g, d, left, right, outer


def test_criterion_06_pullback_pasting():
    with budget("criterion 06 pullback pasting", 10.0):
        rng = random.Random("acceptance-pasting")
        for _ in range(100):
            g, d, left, right, outer = _double_square_world(rng)
            assert check_pullback(d, right).passed
            assert check_pullback(d, left).passed
            assert check_pullback(d, outer).passed


def test_criterion_07_flow_laws():
    from olog.entail import spec_leq

    with budget("criterion 07 flow laws", 30.0):
        rng = random.Random("acceptance-flow")
        sat_checked = adj_checked = 0
        while sat_checked < 200 or adj_checked < 100:
            h = _random_morphism(rng)
            if sat_checked < 200:
                eps = _random_parallel_fact(rng, h.src, 2)
                d2 = _random_diagram(rng, h.tgt)
                if eps is not None:
                    pulled = pullback_instances(h, d2)
                    assert (
                        satisfies_fact(pulled, eps).satisfied
                        == satisfies_fact(d2, translate_fact(h, eps)).satisfied
                    )
                    sat_checked += 1
            if adj_checked < 100:
                e1 = [f for f in (_random_parallel_fact(rng, h.src, 2),
                                  _random_parallel_fact(rng, h.src, 2)) if f]
                e2 = [f for f in (_random_parallel_fact(rng, h.tgt, 2),) if f]
                s2 = Specification(graph=h.tgt, facts=tuple(e2))
                left = spec_leq(
                    s2, Specification(graph=h.tgt, facts=dir_flow(h, e1)), far_bound(h, 2)
                )
                inv = inv_flow(h, tuple(e2), 2)
                right = spec_leq(
                    Specification(graph=h.src, facts=inv),
                    Specification(graph=h.src, facts=tuple(e1)),
                    2,
                )
                assert left == right
                adj_checked += 1


def test_criterion_08_entailment_oracle():
    with budget("criterion 08 entailment oracle equivalence", 120.0):
        cases = [
            ("family.olog", (2, 3, 4)),
            ("employee.olog", (2, 3, 4)),
            ("factorial.olog", (2, 3, 4)),
            ("left.olog", (2, 3, 4)),
            ("portal.olog", (2, 3, 4)),
            ("metric.olog", (2, 3, 4)),
            ("duck.olog", (2, 3, 4)),
        ]
        for name, bounds in cases:
            spec = load_olog(name)
            for bound in bounds:
                got = set(consequence(spec, bound))
                want = naive_consequence(spec.graph, spec.facts, bound)
                assert got == want, (name, bound)


def test_criterion_09_fusion_examples():
    with budget("criterion 09 fusion general examples", 30.0):
        # constant: union fusion, identical per-node consequence
        constant, _ = dsl.parse_system(FIXTURES / "constant.osys", bound=3)
        fused = fusion(constant, 3)
        assert len(fused.facts) == 2
        out = system_consequence(constant, 3)
        shared = constant.specs["n1"].graph
        union = Specification(
            graph=shared,
            facts=tuple({f for s in constant.specs.values() for f in s.facts}),
        )
        want = set(consequence(union, 3))
        for node in constant.shape.nodes:
            assert set(out[node].facts) == want

        # discrete: componentwise consequence
        discrete, _ = dsl.parse_system(FIXTURES / "discrete.osys", bound=3)
        out = system_consequence(discrete, 3)
        for node in discrete.shape.nodes:
            assert set(out[node].facts) == set(
                consequence(discrete.specs[node], 3)
            )

        # span: core equals the independent colimit oracle; consequence per
        # node equals the hand-computed nine equations
        span, _ = dsl.parse_system(FIXTURES / "span.osys", bound=2)
        ch = optimal_channel(span.distributed())
        type_classes, aspect_classes = colimit_classes(span.distributed())
        assert len(ch.core.types) == len(type_classes) == 3
        assert len(ch.core.aspects) == len(aspect_classes) == 3
        out = system_consequence(span, 2)
        for node, (s, m, e, u, v, w) in {
            "ground": ("start0", "mid0", "end0", "u0", "v0", "w0"),
            "left": ("start1", "mid1", "end1", "u1", "v1", "w1"),
            "right": ("start2", "mid2", "end2", "u2", "v2", "w2"),
        }.items():
            paths = [
                identity_path(s), identity_path(m), identity_path(e),
                Path(s, (u,)), Path(m, (v,)), Path(s, (w,)), Path(s, (u, v)),
            ]
            expected = {Fact(p, p) for p in paths} | {
                Fact(Path(s, (u, v)), Path(s, (w,))),
                Fact(Path(s, (w,)), Path(s, (u, v))),
            }
            assert set(out[node].facts) == expected, node


def test_criterion_10_w_system():
    with budget("criterion 10 W-shaped system", 5.0):
        w, diags = dsl.parse_system(FIXTURES / "w.osys", bound=6)
        assert w is not None and not [d for d in diags if d.severity == dsl.ERROR]

        link_files = {
            "pl": ("community.olog", "portal.olog", "community_to_portal.omap"),
            "al": ("reference.olog", "portal.olog", "reference_to_portal.omap"),
            "al2": ("reference.olog", "portal2.olog", "reference_to_portal2.omap"),
            "pl2": ("community2.olog", "portal2.olog", "community2_to_portal2.omap"),
        }
        for eid, (src_name, tgt_name, _) in link_files.items():
            h = w.constraints[eid]
            ok, offenders = is_spec_morphism(
                h, w.specs[eid_src(w, eid)], w.specs[eid_tgt(w, eid)], 6
            )
            assert ok, (eid, offenders)

        fused = fusion(w, 6)
        assert fused.facts
        out = system_consequence(w, 6)
        learned = dsl.parse_fact_text("going;is_go = proc", w.specs["community"].graph)
        assert learned not in w.specs["community"].facts
        assert learned in out["community"].facts


def eid_src(sysm, eid):
    return next(s for e, s, t in sysm.shape.edges if e == eid)


def eid_tgt(sysm, eid):
    return next(t for e, s, t in sysm.shape.edges if e == eid)


def test_criterion_11_sql_goldens(employee_spec, factorial_spec, employee_data,
                                  factorial_data):
    with budget("criterion 11 SQL golden files", 2.0):
        assert emit_ddl(employee_spec) == (
            FIXTURES / "golden" / "employee.sql"
        ).read_text()
        assert emit_ddl(factorial_spec) == (
            FIXTURES / "golden" / "factorial.sql"
        ).read_text()
        for spec, data in ((employee_spec, employee_data),
                           (factorial_spec, factorial_data)):
            sql = emit_ddl(spec) + "\n" + emit_inserts(spec, data)
            assert simulate_foreign_keys(sql) == []


def test_criterion_12_pseudo_metric(metric_spec, metric_data):
    with budget("criterion 12 pseudo-metric", 2.0):
        report = satisfies_spec(metric_data, metric_spec)
        assert report.satisfied
        checks = check_all(metric_data, metric_spec)
        assert all(c.passed for c in checks)
        # the triangle-inequality leg: every reachable side-length triple
        # obeys c <= a+b because only such triples are keys of rtriple
        from fractions import Fraction

        def q(text: str) -> Fraction:
            return Fraction(text)

        for key in metric_data.sets["rtriple"]:
            a = q(metric_data.funcs["a"][key])
            b = q(metric_data.funcs["b"][key])
            c = q(metric_data.funcs["c"][key])
            assert c <= a + b
        # and the pullback annotations on pairs and triples really checked
        kinds = {d.kind for d in metric_spec.sketch}
        assert "pullback" in kinds and "singleton" in kinds


# --- helpers for criterion 07 --------------------------------------------------


def _random_graph(rng: random.Random, prefix: str, max_types=3, max_aspects=5):
    n = rng.randint(1, max_types)
    types = tuple(TypeNode(f"{prefix}{i}", f"a thing {i}") for i in range(n))
    ids = [t.id for t in types]
    aspects = []
    for i in range(rng.randint(0, max_aspects)):
        aspects.append(
            Aspect(f"{prefix}e{i}", rng.choice(ids), rng.choice(ids), "maps to")
        )
    return Graph(types=types, aspects=tuple(aspects))


def _random_morphism(rng: random.Random):
    from olog.core import enumerate_paths, path_target
    from olog.flow import GraphMorphism

    tgt = _random_graph(rng, "X")
    images = {}
    for p in enumerate_paths(tgt, 2):
        images.setdefault((p.source, path_target(tgt, p)), []).append(p)
    n = rng.randint(1, 3)
    src_types = tuple(TypeNode(f"S{i}", f"a source {i}") for i in range(n))
    type_map = {t.id: rng.choice([x.id for x in tgt.types]) for t in src_types}
    aspects = []
    aspect_map = {}
    for i in range(rng.randint(0, 4)):
        a_src = rng.choice([t.id for t in src_types])
        a_tgt = rng.choice([t.id for t in src_types])
        pool = images.get((type_map[a_src], type_map[a_tgt]), [])
        if not pool:
            continue
        aid = f"sa{i}"
        aspects.append(Aspect(aid, a_src, a_tgt, "maps to"))
        aspect_map[aid] = rng.choice(pool)
    src = Graph(types=src_types, aspects=tuple(aspects))
    return GraphMorphism(src=src, tgt=tgt, type_map=type_map, aspect_map=aspect_map)


def _random_parallel_fact(rng: random.Random, graph: Graph, max_len: int):
    from olog.core import enumerate_paths, path_target

    groups = {}
    for p in enumerate_paths(graph, max_len):
        groups.setdefault((p.source, path_target(graph, p)), []).append(p)
    key = rng.choice(sorted(groups))
    pool = groups[key]
    return Fact(rng.choice(pool), rng.choice(pool))


def _random_diagram(rng: random.Random, graph: Graph) -> KeyDiagram:
    sets = {}
    for t in graph.types:
        sets[t.id] = frozenset(f"{t.id}k{i}" for i in range(rng.randint(0, 4)))
    changed = True
    while changed:
        changed = False
        for a in graph.aspects:
            if not sets[a.tgt] and sets[a.src]:
                sets[a.src] = frozenset()
                changed = True
    funcs = {}
    for a in graph.aspects:
        pool = sorted(sets[a.tgt])
        funcs[a.id] = {k: rng.choice(pool) for k in sorted(sets[a.src])}
    return KeyDiagram(sets=sets, funcs=funcs)
