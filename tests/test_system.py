from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olog import dsl, entail, system
from olog.core import (
    Aspect,
    Fact,
    Graph,
    Path,
    Specification,
    TypeNode,
    enumerate_paths,
    format_fact,
    format_path,
    path_target,
)
from olog.entail import consequence, saturate
from olog.errors import GraphMismatchError, MorphismError, OlogError, UnsupportedLinkError
from olog.flow import (
    GraphMorphism,
    dir_flow,
    graph_morphism,
    identity_morphism,
    pullback_instances,
)
from olog.instances import KeyDiagram, intent, satisfies_fact, satisfies_spec
from olog.system import (
    Channel,
    DistributedSystem,
    InformationSystem,
    Shape,
    SystemMorphism,
    check_channel_cover,
    check_refinement,
    check_system_morphism,
    fusion,
    induced_refinement,
    optimal_channel,
    system_consequence,
    validate_system,
)

from . import strategies as sts
from .conftest import FIXTURES
from .oracles import colimit_classes, representatives, validate_system_by_edges


@pytest.fixture(scope="module")
def w_system():
    sysm, diags = dsl.parse_system(FIXTURES / "w.osys", bound=6)
    assert sysm is not None, [str(d) for d in diags]
    return sysm


@pytest.fixture(scope="module")
def w_free_system(tmp_path_factory):
    """W with one more aspect ``alt : go -> process``, in the first community
    and its portal, that no fact ties to ``is_go``: so at both nodes
    ``alt = is_go`` and ``going;alt = proc`` are parallel and not entailed."""
    import shutil

    where = tmp_path_factory.mktemp("w_free")
    for f in FIXTURES.iterdir():
        if f.suffix in (".osys", ".olog", ".omap"):
            shutil.copy(f, where / f.name)
    alt = '  aspect alt : go -> process "is planned as"\n}\n'
    for name in ("community.olog", "portal.olog"):
        text = (where / name).read_text()
        (where / name).write_text(text[: text.rindex("}")] + alt)
    with open(where / "community_to_portal.omap", "a") as f:
        f.write("aspect alt => alt\n")
    sysm, diags = dsl.parse_system(where / "w.osys", bound=6)
    assert sysm is not None, [str(d) for d in diags]
    return sysm


@pytest.fixture(scope="module")
def span_system():
    sysm, diags = dsl.parse_system(FIXTURES / "span.osys", bound=4)
    assert sysm is not None, [str(d) for d in diags]
    return sysm


@pytest.fixture(scope="module")
def constant_system():
    sysm, diags = dsl.parse_system(FIXTURES / "constant.osys", bound=4)
    assert sysm is not None, [str(d) for d in diags]
    return sysm


@pytest.fixture(scope="module")
def discrete_system():
    sysm, diags = dsl.parse_system(FIXTURES / "discrete.osys", bound=3)
    assert sysm is not None, [str(d) for d in diags]
    return sysm


# --- optimal channel ----------------------------------------------------------


def test_constant_core_is_shared_graph(constant_system):
    ds = constant_system.distributed()
    ch = optimal_channel(ds)
    shared = constant_system.specs["n1"].graph
    assert len(ch.core.types) == len(shared.types)
    assert len(ch.core.aspects) == len(shared.aspects)
    # links act as bijective renamings
    for n, link in ch.links.items():
        assert len(set(link.type_map.values())) == len(shared.types)


def test_discrete_core_is_disjoint_union(discrete_system):
    ds = discrete_system.distributed()
    ch = optimal_channel(ds)
    total_types = sum(len(g.types) for g in ds.graphs.values())
    total_aspects = sum(len(g.aspects) for g in ds.graphs.values())
    assert len(ch.core.types) == total_types
    assert len(ch.core.aspects) == total_aspects


def test_span_core_matches_pushout_oracle(span_system):
    ds = span_system.distributed()
    ch = optimal_channel(ds)
    type_classes, aspect_classes = colimit_classes(ds)
    assert len(ch.core.types) == len(type_classes)
    assert len(ch.core.aspects) == len(aspect_classes)
    # each core id is the least member tag of its class
    got_type_ids = {t.id for t in ch.core.types}
    want_type_ids = {f"{min(c)[0]}__{min(c)[1]}" for c in type_classes}
    assert got_type_ids == want_type_ids
    got_aspect_ids = {a.id for a in ch.core.aspects}
    want_aspect_ids = {f"{min(c)[0]}__{min(c)[1]}" for c in aspect_classes}
    assert got_aspect_ids == want_aspect_ids


def test_w_core_merges_reference_through_both_portals(w_system):
    ch = optimal_channel(w_system.distributed())
    # one process type shared by all five nodes
    process_images = {
        ch.links[n].type_map[tid]
        for n, tid in [
            ("community", "process"),
            ("reference", "process"),
            ("portal", "process"),
            ("community2", "process2"),
            ("portal2", "process2"),
        ]
    }
    assert len(process_images) == 1


def test_optimal_channel_rejects_path_valued_links(span_system):
    ds = span_system.distributed()
    bad_link = GraphMorphism(
        src=ds.graphs["ground"],
        tgt=ds.graphs["left"],
        type_map=dict(ds.links["gl"].type_map),
        aspect_map={
            **dict(ds.links["gl"].aspect_map),
            "w0": Path("start1", ("u1", "v1")),
        },
    )
    from olog.system import DistributedSystem

    broken = DistributedSystem(
        shape=ds.shape, graphs=ds.graphs, links={**dict(ds.links), "gl": bad_link}
    )
    with pytest.raises(UnsupportedLinkError):
        optimal_channel(broken)


def _discrete(graphs):
    from olog.system import DistributedSystem, Shape

    return DistributedSystem(shape=Shape(tuple(graphs)), graphs=graphs, links={})


def _link_classes(ch):
    """Node tags grouped by the core type, and the core aspect, they are sent to."""
    types, aspects = {}, {}
    for n, link in ch.links.items():
        for tid, cid in link.type_map.items():
            types.setdefault(cid, set()).add((n, tid))
        for aid, cpath in link.aspect_map.items():
            aspects.setdefault(cpath.edges[0], set()).add((n, aid))
    return {frozenset(c) for c in types.values()}, {frozenset(c) for c in aspects.values()}


def test_core_ids_stay_distinct_when_tags_join_to_one_name():
    ds = _discrete(
        {
            "a_": Graph(types=(TypeNode("b", "a b"),)),
            "a": Graph(types=(TypeNode("_b", "a b"),)),
        }
    )
    ch = optimal_channel(ds)
    assert [t.id for t in ch.core.types] == ["a___b", "a___b_2"]
    assert ch.links["a"].type_map == {"_b": "a___b"}
    assert ch.links["a_"].type_map == {"b": "a___b_2"}
    assert _link_classes(ch) == colimit_classes(ds)


def test_core_id_suffix_skips_the_names_of_other_classes():
    # ("a", "_b_2") keeps its own name, so the second "a___b" class takes
    # "_3"; the aspect ("a", "_x") may not take the name of the type ("a_", "x").
    ds = _discrete(
        {
            "a": Graph(
                types=(TypeNode("_b", "a b"), TypeNode("_b_2", "a b")),
                aspects=(Aspect("_x", "_b", "_b", "has"),),
            ),
            "a_": Graph(types=(TypeNode("b", "a b"), TypeNode("x", "an x"))),
        }
    )
    ch = optimal_channel(ds)
    assert [t.id for t in ch.core.types] == ["a___b", "a___b_2", "a___b_3", "a___x"]
    assert [(a.id, a.src, a.tgt) for a in ch.core.aspects] == [("a___x_2", "a___b", "a___b")]
    assert _link_classes(ch) == colimit_classes(ds)


# --- covering and refinement ----------------------------------------------------


def test_optimal_channel_covers(span_system, w_system, constant_system):
    for sysm in (span_system, w_system, constant_system):
        ds = sysm.distributed()
        ok, violations = check_channel_cover(ds, optimal_channel(ds))
        assert ok and not violations


def test_perturbed_channel_does_not_cover(span_system):
    ds = span_system.distributed()
    ch = optimal_channel(ds)
    # break the ground link by swapping two type images
    link = ch.links["ground"]
    tm = dict(link.type_map)
    tm["start0"], tm["mid0"] = tm["mid0"], tm["start0"]
    am = {
        aid: Path(tm[ds.graphs["ground"].aspect_by_id[aid].src], p.edges)
        for aid, p in link.aspect_map.items()
    }
    bad = Channel(
        core=ch.core,
        links={**dict(ch.links), "ground": GraphMorphism(link.src, link.tgt, tm, am)},
    )
    ok, violations = check_channel_cover(ds, bad)
    assert not ok
    assert set(violations) <= {"gl", "gr"} and violations


def test_optimal_channel_refuses_an_edge_without_a_link(span_system):
    ds = span_system.distributed()
    links = {e: h for e, h in ds.links.items() if e != "gl"}
    broken = DistributedSystem(shape=ds.shape, graphs=ds.graphs, links=links)
    with pytest.raises(OlogError, match=r"^edge 'gl' has no link$"):
        optimal_channel(broken)


def _one_edge(type_map):
    """Nodes ``l`` (type ``a``) and ``r`` (type ``x``) and an edge ``e`` whose
    link has the given type map."""
    graphs = {"l": Graph(types=(TypeNode("a", "an a"),)),
              "r": Graph(types=(TypeNode("x", "an x"),))}
    link = GraphMorphism(graphs["l"], graphs["r"], type_map, {})
    return DistributedSystem(shape=Shape(("l", "r"), (("e", "l", "r"),)), graphs=graphs,
                             links={"e": link})


def test_optimal_channel_refuses_a_link_that_leaves_a_type_unmapped():
    with pytest.raises(MorphismError, match=r"^edge 'e': type 'a' is not mapped$"):
        optimal_channel(_one_edge({}))


def test_optimal_channel_refuses_a_link_onto_an_unknown_type():
    with pytest.raises(MorphismError, match=r"^edge 'e': type 'a' maps to unknown type 'zz'$"):
        optimal_channel(_one_edge({"a": "zz"}))


def test_a_channel_without_a_node_link_does_not_cover_its_edges(span_system):
    ds = span_system.distributed()
    ch = optimal_channel(ds)
    partial = Channel(core=ch.core, links={n: h for n, h in ch.links.items() if n != "left"})
    assert check_channel_cover(ds, partial) == (False, ("gl",))


def test_a_system_without_an_edge_link_does_not_cover_that_edge(span_system):
    ds = span_system.distributed()
    ch = optimal_channel(ds)
    links = {e: h for e, h in ds.links.items() if e != "gl"}
    broken = DistributedSystem(shape=ds.shape, graphs=ds.graphs, links=links)
    assert check_channel_cover(broken, ch) == (False, ("gl",))


def test_induced_refinement_refuses_a_channel_without_a_node_link(span_system):
    opt = optimal_channel(span_system.distributed())
    partial = Channel(core=opt.core, links={n: h for n, h in opt.links.items() if n != "left"})
    with pytest.raises(GraphMismatchError) as exc:
        induced_refinement(opt, partial)
    assert str(exc.value) == "node 'left' has no link; channel does not cover"


def manual_span_channel(span_system):
    """Covering channel whose core is the left graph itself."""
    ds = span_system.distributed()
    left = ds.graphs["left"]
    right = ds.graphs["right"]
    ground = ds.graphs["ground"]
    r2l = graph_morphism(
        right,
        left,
        {t.id: t.id.replace("2", "1") for t in right.types},
        {a.id: Path(a.src.replace("2", "1"), (a.id.replace("2", "1"),)) for a in right.aspects},
    )
    return Channel(
        core=left,
        links={
            "left": identity_morphism(left),
            "right": r2l,
            "ground": ds.links["gl"],
        },
    )


def test_manual_constant_core_channel_covers(span_system):
    ds = span_system.distributed()
    ch = manual_span_channel(span_system)
    ok, violations = check_channel_cover(ds, ch)
    assert ok, violations


def test_refinement_identity_and_induced(span_system):
    ds = span_system.distributed()
    opt = optimal_channel(ds)
    ident = identity_morphism(opt.core)
    assert check_refinement(ident, opt, opt)

    other = manual_span_channel(span_system)
    induced = induced_refinement(opt, other)
    assert check_refinement(induced, opt, other)

    # a wrong core map fails
    tm = dict(induced.type_map)
    ids = sorted(tm)
    tm[ids[0]], tm[ids[1]] = tm[ids[1]], tm[ids[0]]
    wrong = GraphMorphism(induced.src, induced.tgt, tm, dict(induced.aspect_map))
    assert not check_refinement(wrong, opt, other)


def test_induced_refinement_refuses_conflicting_images(span_system):
    # The core glues start0, start1 and start2 into one type and u0, u1 and
    # u2 into one aspect; a channel that splits either does not cover.
    opt = optimal_channel(span_system.distributed())
    other = manual_span_channel(span_system)
    r2l = other.links["right"]
    for type_map, aspect_map, what in (
        ({**r2l.type_map, "start2": "mid1"}, r2l.aspect_map, "core type 'ground__start0'"),
        (r2l.type_map, {**r2l.aspect_map, "u2": Path("start1", ("w1",))},
         "core aspect 'ground__u0'"),
    ):
        split = GraphMorphism(r2l.src, r2l.tgt, type_map, aspect_map)
        channel = Channel(core=other.core, links={**other.links, "right": split})
        with pytest.raises(GraphMismatchError) as exc:
            induced_refinement(opt, channel)
        assert str(exc.value) == f"{what} has conflicting images; channel does not cover"


# --- fusion ---------------------------------------------------------------------


def test_fusion_single_node(tmp_path):
    import shutil

    shutil.copy(FIXTURES / "employee.olog", tmp_path / "employee.olog")
    (tmp_path / "solo.osys").write_text("node only = employee.olog\n")
    sysm, _ = dsl.parse_system(tmp_path / "solo.osys", bound=3)
    fused = fusion(sysm, 3)
    emp = sysm.specs["only"]
    assert len(fused.graph.types) == len(emp.graph.types)
    assert len(fused.facts) == len(emp.facts)
    # renamed copies of the two declared facts
    assert {f"only__{a.id}" for a in emp.graph.aspects} == {
        a.id for a in fused.graph.aspects
    }


def test_fusion_constant_is_union(constant_system):
    fused = fusion(constant_system, 4)
    assert len(fused.facts) == 2
    lhss = {f.lhs.edges for f in fused.facts}
    assert ("n1__manager", "n1__works_in") in lhss
    assert ("n1__secretary", "n1__works_in") in lhss


def test_fusion_span_is_direct_image_union(span_system):
    fused = fusion(span_system, 4)
    assert [format_fact(f) for f in fused.facts] == [
        "ground__u0;ground__v0 = ground__w0"
    ]


def test_fusion_rejects_invalid_system(span_system):
    bad = InformationSystem(
        shape=span_system.shape,
        specs={
            **dict(span_system.specs),
            "right": Specification(
                graph=span_system.specs["right"].graph,
                facts=(),
                name="Right",
            ),
        },
        constraints={
            # reversed edge: left's fact is not preserved by fact-free ground
            "gl": span_system.constraints["gl"],
            "gr": span_system.constraints["gr"],
        },
    )
    # make ground declare something the others do not entail
    g = span_system.specs["ground"].graph
    chatty_ground = Specification(
        graph=g,
        facts=(Fact(Path("start0", ("u0", "v0")), Path("start0", ("w0",))),),
        name="Ground",
    )
    worse = InformationSystem(
        shape=span_system.shape,
        specs={**dict(bad.specs), "ground": chatty_ground},
        constraints=bad.constraints,
    )
    # gl is fine (left declares the fact) but gr is not (right declares nothing)
    with pytest.raises(OlogError):
        fusion(worse, 4)


# --- system consequence ----------------------------------------------------------


def test_consequence_discrete_is_componentwise(discrete_system):
    out = system_consequence(discrete_system, 3)
    for node in discrete_system.shape.nodes:
        assert set(out[node].facts) == set(
            consequence(discrete_system.specs[node], 3)
        )


def test_consequence_constant_every_node_gets_union(constant_system):
    out = system_consequence(constant_system, 3)
    shared_graph = constant_system.specs["n1"].graph
    union = Specification(
        graph=shared_graph,
        facts=tuple(
            {f for spec in constant_system.specs.values() for f in spec.facts}
        ),
    )
    want = set(consequence(union, 3))
    for node in constant_system.shape.nodes:
        assert set(out[node].facts) == want


def test_consequence_span_right_learns(span_system):
    out = system_consequence(span_system, 4)
    learned = dsl.parse_fact_text("u2;v2 = w2", span_system.specs["right"].graph)
    assert learned in out["right"].facts
    own = set(consequence(span_system.specs["right"], 4))
    assert own < set(out["right"].facts)  # strictly more than the parts


def test_consequence_increasing_and_monotone(span_system):
    out = system_consequence(span_system, 4)
    for node in span_system.shape.nodes:
        declared = set(span_system.specs[node].facts)
        assert declared <= set(out[node].facts)
        assert set(consequence(span_system.specs[node], 4)) <= set(out[node].facts)

    # add a fact at the left node; no node's output shrinks
    left = span_system.specs["left"]
    extra = Fact(Path("mid1", ("v1",)), Path("mid1", ("v1",)))
    richer = InformationSystem(
        shape=span_system.shape,
        specs={
            **dict(span_system.specs),
            "left": Specification(graph=left.graph, facts=left.facts + (extra,)),
        },
        constraints=span_system.constraints,
    )
    out2 = system_consequence(richer, 4)
    for node in span_system.shape.nodes:
        assert set(out[node].facts) <= set(out2[node].facts)


def test_consequence_idempotent_on_fixtures(span_system, constant_system):
    for sysm, bound in ((span_system, 4), (constant_system, 3)):
        once = system_consequence(sysm, bound)
        closed = InformationSystem(
            shape=sysm.shape, specs=once, constraints=sysm.constraints
        )
        twice = system_consequence(closed, bound)
        for node in sysm.shape.nodes:
            assert set(once[node].facts) == set(twice[node].facts)


def test_final_parts_suffice(w_system, constant_system):
    for sysm, bound in ((w_system, 6), (constant_system, 3)):
        finals = set(sysm.shape.final_nodes())
        trimmed = InformationSystem(
            shape=sysm.shape,
            specs={
                n: (
                    s
                    if n in finals
                    else Specification(graph=s.graph, facts=(), name=s.name)
                )
                for n, s in sysm.specs.items()
            },
            constraints=sysm.constraints,
        )
        full = system_consequence(sysm, bound)
        thin = system_consequence(trimmed, bound)
        for node in sysm.shape.nodes:
            assert set(full[node].facts) == set(thin[node].facts)


def test_w_community_learns_portal_fact(w_system):
    out = system_consequence(w_system, 6)
    comm = w_system.specs["community"]
    fact = dsl.parse_fact_text("going;is_go = proc", comm.graph)
    assert fact not in comm.facts  # not declared locally
    assert fact in out["community"].facts  # learned through the system


# --- system morphisms -------------------------------------------------------------


def test_system_morphism_identity(span_system):
    theta = SystemMorphism(
        components={
            n: identity_morphism(s.graph) for n, s in span_system.specs.items()
        }
    )
    ok, violations = check_system_morphism(theta, span_system, span_system, 4)
    assert ok, violations


def test_system_morphism_pointwise_order(span_system):
    # a pointwise-more-general system maps into the specialized one with
    # identity components; the reverse direction drops a fact and fails
    weaker = InformationSystem(
        shape=span_system.shape,
        specs={
            **dict(span_system.specs),
            "left": Specification(graph=span_system.specs["left"].graph, facts=()),
        },
        constraints=span_system.constraints,
    )
    theta = SystemMorphism(
        components={
            n: identity_morphism(s.graph) for n, s in span_system.specs.items()
        }
    )
    ok, violations = check_system_morphism(theta, weaker, span_system, 4)
    assert ok, violations
    ok_rev, violations_rev = check_system_morphism(theta, span_system, weaker, 4)
    assert not ok_rev
    assert any("left" in v for v in violations_rev)


def test_system_morphism_refuses_a_mismatched_shape_or_component(span_system, constant_system):
    comps = {n: identity_morphism(s.graph) for n, s in span_system.specs.items()}
    with pytest.raises(GraphMismatchError, match="^system morphisms need a shared shape$"):
        check_system_morphism(SystemMorphism(components=comps), span_system, constant_system, 4)
    missing = SystemMorphism(components={n: h for n, h in comps.items() if n != "left"})
    assert check_system_morphism(missing, span_system, span_system, 4) == (
        False, ("node 'left': no component morphism",)
    )
    crossed = SystemMorphism(components={**comps, "left": comps["right"]})
    assert check_system_morphism(crossed, span_system, span_system, 4) == (
        False, ("node 'left': component endpoints do not match",)
    )


def test_system_morphism_reports_a_node_without_a_specification(span_system):
    comps = {n: identity_morphism(s.graph) for n, s in span_system.specs.items()}
    specless = InformationSystem(
        shape=span_system.shape,
        specs={n: s for n, s in span_system.specs.items() if n != "left"},
        constraints=span_system.constraints,
    )
    theta = SystemMorphism(components=comps)
    assert check_system_morphism(theta, span_system, specless, 4) == (
        False, ("node 'left': no specification in the second system",)
    )
    assert check_system_morphism(theta, specless, span_system, 4) == (
        False, ("node 'left': no specification in the first system",)
    )


def test_system_morphism_reports_an_edge_without_a_constraint(span_system):
    comps = {n: identity_morphism(s.graph) for n, s in span_system.specs.items()}
    unconstrained = InformationSystem(
        shape=span_system.shape,
        specs=span_system.specs,
        constraints={e: h for e, h in span_system.constraints.items() if e != "gl"},
    )
    theta = SystemMorphism(components=comps)
    assert check_system_morphism(theta, unconstrained, span_system, 4) == (
        False, ("edge 'gl': no constraint morphism in the first system",)
    )
    assert check_system_morphism(theta, span_system, unconstrained, 4) == (
        False, ("edge 'gl': no constraint morphism in the second system",)
    )


def test_system_morphism_naturality_violation(span_system):
    comps = {n: identity_morphism(s.graph) for n, s in span_system.specs.items()}
    right = span_system.specs["right"].graph
    tm = {t.id: t.id for t in right.types}
    swapped = dict(tm)
    swapped["start2"], swapped["mid2"] = "mid2", "start2"
    # not even a valid morphism endpointwise, so build unchecked
    comps["right"] = GraphMorphism(
        src=right,
        tgt=right,
        type_map=swapped,
        aspect_map={a.id: Path(a.src, (a.id,)) for a in right.aspects},
    )
    theta = SystemMorphism(components=comps)
    ok, violations = check_system_morphism(theta, span_system, span_system, 4)
    assert not ok
    assert any("gr" in v or "naturality" in v for v in violations)


def test_validate_system_reports_unpreserved_edge(span_system):
    g = span_system.specs["ground"].graph
    chatty = Specification(
        graph=g,
        facts=(Fact(Path("start0", ("u0", "v0")), Path("start0", ("w0",))),),
    )
    bad = InformationSystem(
        shape=span_system.shape,
        specs={**dict(span_system.specs), "ground": chatty},
        constraints=span_system.constraints,
    )
    problems = validate_system(bad, 4)
    assert any("gr" in p and "not preserved" in p for p in problems)
    assert not any("gl" in p for p in problems)
    assert problems == validate_system_by_edges(bad, 4)


def test_fused_and_consequence_ologs_reparse(span_system, constant_system, w_system):
    for sysm, bound in ((span_system, 4), (constant_system, 3), (w_system, 6)):
        fused = fusion(sysm, bound)
        text = dsl.print_olog(fused)
        reparsed, diags = dsl.parse_olog(text)
        assert reparsed is not None
        assert not [d for d in diags if d.severity == dsl.ERROR]
        assert dsl.print_olog(reparsed) == text
        for node, spec in system_consequence(sysm, bound).items():
            out = dsl.print_olog(spec)
            again, diags = dsl.parse_olog(out, node)
            assert again is not None
            assert not [d for d in diags if d.severity == dsl.ERROR]


def test_system_consequence_is_per_node_inverse_flow(span_system):
    from olog.flow import inv_flow
    from olog.system import optimal_channel

    bound = 4
    fused = fusion(span_system, bound)
    channel = optimal_channel(span_system.distributed())
    out = system_consequence(span_system, bound)
    for node in span_system.shape.nodes:
        assert out[node].facts == inv_flow(channel.links[node], fused.facts, bound)


def test_system_mappings_are_read_only(w_system):
    with pytest.raises(TypeError):
        w_system.specs["extra"] = w_system.specs["portal"]
    with pytest.raises(TypeError):
        w_system.constraints["al"] = w_system.constraints["pl"]


def test_system_copies_the_given_mappings(span_system):
    specs = dict(span_system.specs)
    sysm = InformationSystem(span_system.shape, specs, span_system.constraints)
    del specs["left"]
    assert "left" in sysm.specs
    assert validate_system(sysm, 4) == []


# --- validate_system saturates each target once -------------------------------


def _fresh(sysm):
    """A copy that has passed validation at no bound."""
    return InformationSystem(shape=sysm.shape, specs=sysm.specs, constraints=sysm.constraints)


def _problems_or_error(validate, sysm, bound):
    try:
        return validate(_fresh(sysm), bound)
    except OlogError as exc:
        return type(exc), str(exc)


def test_validate_system_saturates_each_target_once(w_system, monkeypatch):
    # Validation decides on one class table per target node, built once on
    # specs that hold none yet.
    closed = []
    tabulate = entail._tabulate
    monkeypatch.setattr(entail, "_tabulate", lambda s, b: closed.append(s) or tabulate(s, b))
    specs = {
        n: Specification(graph=s.graph, facts=s.facts, sketch=s.sketch, name=s.name)
        for n, s in w_system.specs.items()
    }
    sysm = InformationSystem(shape=w_system.shape, specs=specs, constraints=w_system.constraints)
    assert validate_system(sysm, 5) == []
    # Four edges, two into each portal.
    assert list(map(id, closed)) == [id(specs["portal"]), id(specs["portal2"])]


@pytest.mark.parametrize("name", ["constant", "discrete", "span", "w"])
def test_validate_system_matches_edge_by_edge_on_fixtures(request, name):
    sysm = request.getfixturevalue(f"{name}_system")
    for bound in range(1, 7):
        assert _problems_or_error(validate_system, sysm, bound) == _problems_or_error(
            validate_system_by_edges, sysm, bound
        )


def test_validate_system_reports_each_structural_problem():
    g = Graph(types=(TypeNode("x", "an x"),), aspects=(Aspect("f", "x", "x", "is"),))
    other = Graph(types=(TypeNode("y", "a y"),))
    spec = Specification(graph=g)
    sysm = InformationSystem(
        shape=Shape(
            nodes=("a", "b", "c"),
            edges=(("e1", "a", "b"), ("e2", "a", "c"), ("e3", "a", "b")),
        ),
        specs={"a": spec, "b": spec},
        constraints={"e2": identity_morphism(g), "e3": identity_morphism(other)},
    )
    assert validate_system(sysm, 3) == [
        "node 'c' has no specification",
        "edge 'e1' has no morphism",
        "edge 'e2' references unknown nodes",
        "edge 'e3': morphism endpoints do not match the node graphs",
    ]


@pytest.mark.parametrize("unmapped", ["type", "aspect"])
def test_an_incomplete_constraint_is_reported_not_a_key_error(unmapped):
    loop = Graph((TypeNode("a", "an a"),), (Aspect("f", "a", "a", "is"),))
    spec = Specification(loop, (Fact(Path("a", ("f", "f")), Path("a", ("f",))),))
    if unmapped == "type":
        h, message = GraphMorphism(loop, loop, {}, {"f": Path("a", ("f",))}), "type 'a'"
    else:
        h, message = GraphMorphism(loop, loop, {"a": "a"}, {}), "aspect 'f'"
    message += " is not mapped"
    sysm = InformationSystem(
        Shape(("m", "n"), (("e", "m", "n"),)), {"m": spec, "n": spec}, {"e": h}
    )
    assert validate_system(sysm, 3) == [f"edge 'e': {message}"]
    assert validate_system(sysm, 3) == validate_system_by_edges(sysm, 3)
    with pytest.raises(OlogError, match=f"^invalid information system: edge 'e': {message}$"):
        fusion(sysm, 3)
    theta = SystemMorphism({n: identity_morphism(loop) for n in ("m", "n")})
    with pytest.raises(MorphismError, match=f"^{message}$"):
        check_system_morphism(theta, sysm, sysm, 3)


def _proper_facts(graph: Graph, max_len: int):
    """Facts between two distinct parallel paths of ``graph``, none longer
    than ``max_len``; any parallel facts where there is no such pair."""
    groups: dict[tuple[str, str], list[Path]] = {}
    for p in enumerate_paths(graph, max_len):
        groups.setdefault((p.source, path_target(graph, p)), []).append(p)
    proper = [Fact(p, q) for ps in groups.values() for p in ps for q in ps if p != q]
    return st.sampled_from(proper) if proper else sts.parallel_facts(graph, max_len)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_validate_system_matches_edge_by_edge_on_two_nodes(data):
    # An edge a -> b, and maybe identity loops so that b has two incoming
    # edges; facts may overflow the bound or fail to be preserved. a declares
    # one to three facts, between distinct paths where it has any, so that
    # unpreserved facts are common.
    h = data.draw(sts.morphisms())
    bound = data.draw(st.integers(1, 3))
    lengths = st.sampled_from([bound, bound + 1])
    a_facts = st.lists(_proper_facts(h.src, data.draw(lengths)), min_size=1, max_size=3)
    s1 = Specification(graph=h.src, facts=tuple(data.draw(a_facts)))
    s2 = data.draw(sts.specs_on(h.tgt, max_facts=1, max_len=data.draw(lengths)))
    edges, constraints = [("e", "a", "b")], {"e": h}
    if data.draw(st.booleans()):
        edges.append(("loop_b", "b", "b"))
        constraints["loop_b"] = identity_morphism(h.tgt)
    if data.draw(st.booleans()):
        edges.append(("loop_a", "a", "a"))
        constraints["loop_a"] = identity_morphism(h.src)
    sysm = InformationSystem(
        shape=Shape(nodes=("a", "b"), edges=tuple(edges)),
        specs={"a": s1, "b": s2},
        constraints=constraints,
    )
    assert _problems_or_error(validate_system, sysm, bound) == _problems_or_error(
        validate_system_by_edges, sysm, bound
    )


# --- semantic soundness -------------------------------------------------------
# In the paper an instance is a functor into finite sets, and every equation
# derived from some facts holds in every instance that satisfies them. So a
# model of the fusion, pulled back along each link, must satisfy every fact
# of that node's system consequence.


def _holds_on_pull_backs(sysm, bound, channel, d):
    assert all(c.satisfied for c in satisfies_spec(d, fusion(sysm, bound)).checks)
    for n, spec in system_consequence(sysm, bound).items():
        pulled = pullback_instances(channel.links[n], d)
        for fact in spec.facts:
            assert satisfies_fact(pulled, fact).satisfied, (n, format_fact(fact))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_system_consequence_holds_on_pull_backs_of_models_on_two_nodes(data):
    # The model d is drawn on the core first. Each node then declares facts
    # that hold on d's pull-back there, and b also declares the translations
    # of a's facts, so the edge preserves them and d models the fusion.
    h = data.draw(sts.links())
    bound = data.draw(st.integers(1, 3))
    edges, constraints = [("e", "a", "b")], {"e": h}
    if data.draw(st.booleans()):
        edges.append(("loop_b", "b", "b"))
        constraints["loop_b"] = identity_morphism(h.tgt)
    if data.draw(st.booleans()):
        edges.append(("loop_a", "a", "a"))
        constraints["loop_a"] = identity_morphism(h.src)
    shape = Shape(nodes=("a", "b"), edges=tuple(edges))
    graphs = {"a": h.src, "b": h.tgt}
    channel = optimal_channel(DistributedSystem(shape, graphs, constraints))
    d = data.draw(sts.key_diagrams_on(channel.core, max_keys=3))
    declared = {}
    for n, g in graphs.items():
        holds = intent(pullback_instances(channel.links[n], d), g, bound)
        proper = [f for f in holds if f.lhs != f.rhs] or holds
        declared[n] = tuple(data.draw(st.lists(st.sampled_from(proper), max_size=3)))
    declared["b"] += dir_flow(h, declared["a"])
    sysm = InformationSystem(
        shape=shape,
        specs={n: Specification(graph=graphs[n], facts=declared[n], name=n) for n in graphs},
        constraints=constraints,
    )
    _holds_on_pull_backs(sysm, bound, channel, d)


def _representables(spec: Specification, sources, bound: int) -> KeyDiagram:
    """The sum of the representable models ``Hom(s, -)`` of ``spec``, one for
    each type ``s`` of ``sources``: the keys over a type are the classes of
    the paths into it from those sources. A model of ``spec`` when every path
    is shorter than ``bound``, so the bounded classes are the unbounded ones.
    """
    g = spec.graph
    rep = representatives(saturate(spec, bound))
    paths = [p for p in enumerate_paths(g, bound) if p.source in sources]
    assert all(len(p) < bound for p in paths)

    def key(p: Path) -> str:
        return format_path(rep[p])

    sets = {t.id: set() for t in g.types}
    funcs = {a.id: {} for a in g.aspects}
    for p in paths:
        at = path_target(g, p)
        sets[at].add(key(p))
        for a in g.aspects_from.get(at, ()):
            funcs[a.id][key(p)] = key(Path(p.source, p.edges + (a.id,)))
    return KeyDiagram(sets={t: frozenset(ks) for t, ks in sets.items()}, funcs=funcs)


def _holds_on_pull_backs_of_models_of_w(sysm, data):
    # W's core is acyclic with paths of length at most 3, so representables
    # of the fusion plus a few drawn facts are finite models of the fusion.
    bound = data.draw(st.integers(2, 4))
    channel = optimal_channel(sysm.distributed())
    fused = fusion(sysm, bound)
    extra = data.draw(sts.specs_on(channel.core, max_facts=2, max_len=3))
    theory = Specification(graph=fused.graph, facts=fused.facts + extra.facts)
    type_ids = [t.id for t in fused.graph.types]
    sources = data.draw(st.sets(st.sampled_from(type_ids), min_size=1))
    d = _representables(theory, sources, 4)
    _holds_on_pull_backs(sysm, bound, channel, d)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_system_consequence_holds_on_pull_backs_of_models_of_w(w_system, data):
    _holds_on_pull_backs_of_models_of_w(w_system, data)


def test_w_free_system_has_parallel_pairs_that_are_not_entailed(w_free_system):
    # In W itself every parallel pair within the bound is entailed, so a
    # system consequence that equated all of them would pass the W tests.
    free = {Fact(Path("go", ("alt",)), Path("go", ("is_go",))),
            Fact(Path("event", ("going", "alt")), Path("event", ("proc",)))}
    for n in ("community", "portal"):
        facts = set(system_consequence(w_free_system, 3)[n].facts)
        assert not free & {f for g in facts for f in (g, Fact(g.rhs, g.lhs))}, n


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_system_consequence_holds_on_pull_backs_of_models_of_w_with_a_free_pair(
    w_free_system, data
):
    _holds_on_pull_backs_of_models_of_w(w_free_system, data)
