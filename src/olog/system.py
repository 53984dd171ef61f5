"""Networks of ologs: shaped diagrams, channels, fusion, system consequence.

An information system indexes specifications by the nodes of a finite shape
graph, with a constraint morphism per edge. The underlying distributed system
keeps only the languages (graphs) and translations. A channel gives every
node a link into one core graph; the optimal channel's core is the colimit of
the graph diagram, computed as a quotient of the tagged disjoint union. The
fusion collects every node's facts on that core, and system consequence flows
the fused facts back down to each node.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

from .core import (
    Aspect,
    Fact,
    Graph,
    Path,
    Specification,
    TypeNode,
    UnionFind,
    format_fact,
    held,
    record,
)
from .entail import DEFAULT_BOUND, check_fits, class_table
from .errors import (
    BoundExceededError,
    GraphMismatchError,
    MorphismError,
    OlogError,
    UnsupportedLinkError,
)
from .flow import (
    GraphMorphism,
    _flow_back,
    _unpreserved,
    compose_morphisms,
    dir_flow,
    is_spec_morphism,
    morphism_errors,
)


@record
class Shape:
    """Finite index graph: node ids plus directed edges (id, src, tgt)."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes)))
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    def final_nodes(self) -> tuple[str, ...]:
        """Nodes with no outgoing edges (ignoring loops onto themselves)."""
        out = {e[1] for e in self.edges if e[1] != e[2]}
        return tuple(n for n in self.nodes if n not in out)


@record
class DistributedSystem:
    shape: Shape
    graphs: Mapping[str, Graph]
    links: Mapping[str, GraphMorphism]


@record
class InformationSystem:
    """Specifications over a shape, with a constraint morphism per edge.

    ``specs`` and ``constraints`` are read-only copies of the given mappings,
    so the problems that :func:`validate_system` holds stay valid.
    """

    shape: Shape
    specs: Mapping[str, Specification]
    constraints: Mapping[str, GraphMorphism]

    def __post_init__(self):
        object.__setattr__(self, "specs", MappingProxyType(dict(self.specs)))
        object.__setattr__(self, "constraints", MappingProxyType(dict(self.constraints)))

    def distributed(self) -> DistributedSystem:
        return DistributedSystem(
            shape=self.shape,
            graphs={n: s.graph for n, s in self.specs.items()},
            links=dict(self.constraints),
        )


@record
class Channel:
    core: Graph
    links: Mapping[str, GraphMorphism]


@record
class SystemMorphism:
    components: Mapping[str, GraphMorphism]


def validate_system(sys: InformationSystem, bound: int = DEFAULT_BOUND) -> list[str]:
    """Structural problems plus constraint edges that fail entailment preservation.

    A fact that overflows the bound is reported, not raised: a node's own
    declared fact as a problem of that node, whose incoming edges are then
    skipped, and a translated fact as a problem of its edge, as is an id that
    its morphism leaves unmapped. Each target node's class table is built once,
    when its first edge is checked. The problems are :func:`core.held` on
    ``sys``, so a system is checked once per bound; each call gets a copy.
    """
    return list(held(sys, "_problems", bound, lambda: _problems(sys, bound)))


def _problems(sys: InformationSystem, bound: int) -> list[str]:
    problems: list[str] = []
    overflowing: set[str] = set()
    for n in sys.shape.nodes:
        if n not in sys.specs:
            problems.append(f"node '{n}' has no specification")
            continue
        try:
            for fact in sys.specs[n].facts:
                check_fits(fact, bound, "declared")
        except BoundExceededError as exc:
            problems.append(f"node '{n}': {exc}")
            overflowing.add(n)
    for eid, src, tgt in sys.shape.edges:
        h = sys.constraints.get(eid)
        if h is None:
            problems.append(f"edge '{eid}' has no morphism")
            continue
        if src not in sys.specs or tgt not in sys.specs:
            problems.append(f"edge '{eid}' references unknown nodes")
            continue
        if h.src != sys.specs[src].graph or h.tgt != sys.specs[tgt].graph:
            problems.append(f"edge '{eid}': morphism endpoints do not match the node graphs")
            continue
        if tgt in overflowing:
            continue
        try:
            offenders = _unpreserved(h, sys.specs[src], class_table(sys.specs[tgt], bound))
        except (BoundExceededError, MorphismError) as exc:
            problems.append(f"edge '{eid}': {exc}")
            continue
        for f in offenders:
            problems.append(f"edge '{eid}': fact {format_fact(f)} is not preserved")
    return problems


def _core_classes(uf: UnionFind) -> tuple[dict, dict]:
    """Core id per ``(kind, node, id)`` tag and the member tags per core id.

    A class is named ``node__id`` by its least tag. Distinct tags can join to
    one name (``("a_", "b")`` and ``("a", "_b")`` both give ``a___b``); then
    each later class in tag order, types (kind 0) before aspects (kind 1),
    takes the first ``_2``, ``_3``, ... suffix that names no other class, so
    ids are distinct and every name that is not contested stays as it is.
    """
    groups = uf.classes()
    taken = {f"{n}__{i}" for _, n, i in groups}
    used: set[str] = set()
    core_id: dict[tuple, str] = {}
    members: dict[str, list[tuple]] = {}
    for root in sorted(groups):
        cid = base = f"{root[1]}__{root[2]}"
        if base in used:
            n = 2
            while f"{base}_{n}" in taken:
                n += 1
            cid = f"{base}_{n}"
            taken.add(cid)
        used.add(cid)
        members[cid] = groups[root]
        core_id.update(dict.fromkeys(groups[root], cid))
    return core_id, members


def optimal_channel(ds: DistributedSystem) -> Channel:
    """Colimit of the graph diagram, with the induced link per node.

    Types (kind 0) and aspects (kind 1) of all node graphs are tagged by kind
    and node and quotiented by the link identifications; the class id is the
    least (node, id) tag joined with a double underscore, suffixed only where
    two classes would share it, so cores print deterministically and survive
    a round trip through the text format. A shape edge without a link, a link
    whose aspect images are not single aspects, which cannot be quotiented,
    and a link that is not a morphism are rejected.
    """
    for eid, src, tgt in ds.shape.edges:
        h = ds.links.get(eid)
        if h is None:
            raise MorphismError(f"edge '{eid}' has no link")
        for aid, img in h.aspect_map.items():
            if len(img.edges) != 1:
                raise UnsupportedLinkError(
                    f"edge '{eid}' maps aspect '{aid}' to a path of length "
                    f"{len(img.edges)}; the core colimit needs single-aspect images"
                )
        problems = morphism_errors(h)
        if problems:
            raise MorphismError(f"edge '{eid}': {problems[0]}")

    graphs = [(n, ds.graphs[n]) for n in ds.shape.nodes]
    uf = UnionFind([(0, n, t.id) for n, g in graphs for t in g.types]
                   + [(1, n, a.id) for n, g in graphs for a in g.aspects])
    for eid, src, tgt in ds.shape.edges:
        h = ds.links[eid]
        for tid, img in h.type_map.items():
            uf.union((0, src, tid), (0, tgt, img))
        for aid, img in h.aspect_map.items():
            uf.union((1, src, aid), (1, tgt, img.edges[0]))
    core_id, members = _core_classes(uf)

    core_types, core_aspects = [], []
    for cid, tags in sorted(members.items()):
        kind, n, rep = min(tags)
        if kind == 0:
            core_types.append(TypeNode(cid, ds.graphs[n].type_by_id[rep].label))
        else:
            a = ds.graphs[n].aspect_by_id[rep]
            modifiers = frozenset().union(
                *(ds.graphs[m].aspect_by_id[b].modifiers for _, m, b in tags)
            )
            core_aspects.append(Aspect(cid, core_id[(0, n, a.src)], core_id[(0, n, a.tgt)],
                                       a.label, modifiers))

    core = Graph(types=tuple(core_types), aspects=tuple(core_aspects))
    links = {}
    for n, g in graphs:
        links[n] = GraphMorphism(
            g,
            core,
            {t.id: core_id[(0, n, t.id)] for t in g.types},
            {a.id: Path(core_id[(0, n, a.src)], (core_id[(1, n, a.id)],)) for a in g.aspects},
        )
    return Channel(core=core, links=links)


def _same_maps(h: GraphMorphism, k: GraphMorphism) -> bool:
    """Do two morphisms agree on every type and aspect image?"""
    return dict(h.type_map) == dict(k.type_map) and dict(h.aspect_map) == dict(k.aspect_map)


def check_channel_cover(ds: DistributedSystem, ch: Channel) -> tuple[bool, tuple[str, ...]]:
    """Does the channel respect every constraint edge (link factors through it)?

    An edge is a violation also when the system has no link for it or the
    channel has no link for one of its nodes.
    """
    links = ch.links
    violations = [
        eid
        for eid, src, tgt in ds.shape.edges
        if eid not in ds.links or src not in links or tgt not in links
        or not _same_maps(compose_morphisms(ds.links[eid], links[tgt]), links[src])
    ]
    return (not violations, tuple(violations))


def check_refinement(h: GraphMorphism, frm: Channel, to: Channel) -> bool:
    """Is ``h`` a core map making the finer channel factor the coarser one?"""
    return all(
        _same_maps(compose_morphisms(link, h), to.links[n]) for n, link in frm.links.items()
    )


def induced_refinement(optimal: Channel, other: Channel) -> GraphMorphism:
    """The unique core map from the optimal channel into any covering channel.

    Well-defined because covering makes all members of a core class agree on
    their image; disagreement raises, which signals the other channel does not
    actually cover the same system, as does a node the other channel has no
    link for.
    """
    type_map: dict[str, str] = {}
    aspect_map: dict[str, Path] = {}
    for n, link in sorted(optimal.links.items()):
        onto = other.links.get(n)
        if onto is None:
            raise GraphMismatchError(f"node '{n}' has no link; channel does not cover")
        for tid, cid in link.type_map.items():
            img = onto.type_map[tid]
            if type_map.setdefault(cid, img) != img:
                raise GraphMismatchError(
                    f"core type '{cid}' has conflicting images; channel does not cover"
                )
        for aid, cpath in link.aspect_map.items():
            cid = cpath.edges[0]
            img = onto.aspect_map[aid]
            if aspect_map.setdefault(cid, img) != img:
                raise GraphMismatchError(
                    f"core aspect '{cid}' has conflicting images; channel does not cover"
                )
    return GraphMorphism(
        src=optimal.core, tgt=other.core, type_map=type_map, aspect_map=aspect_map
    )


def _fuse(sys: InformationSystem, bound: int) -> tuple[Channel, Specification]:
    """Validate the system, then build its optimal channel and the fusion on it,
    :func:`core.held` on ``sys``, so :func:`fusion` and :func:`system_consequence` share it."""
    return held(sys, "_fusion", bound, lambda: _fuse_anew(sys, bound))


def _fuse_anew(sys: InformationSystem, bound: int) -> tuple[Channel, Specification]:
    problems = validate_system(sys, bound)
    if problems:
        raise OlogError("invalid information system: " + "; ".join(problems))
    channel = optimal_channel(sys.distributed())
    facts: set[Fact] = set()
    for n in sys.shape.nodes:
        facts.update(dir_flow(channel.links[n], sys.specs[n].facts))
    return channel, Specification(
        graph=channel.core, facts=tuple(sorted(facts)), name="fusion"
    )


def fusion(sys: InformationSystem, bound: int = DEFAULT_BOUND) -> Specification:
    """One specification for the whole system: every node's facts on the core.

    Validates the system first (every constraint must preserve entailment at
    the given bound).
    """
    return _fuse(sys, bound)[1]


def system_consequence(
    sys: InformationSystem, bound: int = DEFAULT_BOUND
) -> dict[str, Specification]:
    """Flow the fused facts back to each node.

    Every node receives the bounded equations of its own language whose
    translations onto the core are entailed by the fusion. Links send aspects
    to single aspects, so translation preserves path length and no path's
    translation overflows the bound.
    """
    channel, fused = _fuse(sys, bound)
    table = class_table(fused, bound)
    return {
        n: Specification(
            graph=sys.specs[n].graph, facts=_flow_back(channel.links[n], table, bound), name=n
        )
        for n in sys.shape.nodes
    }


def check_system_morphism(
    theta: SystemMorphism,
    sys1: InformationSystem,
    sys2: InformationSystem,
    bound: int = DEFAULT_BOUND,
) -> tuple[bool, tuple[str, ...]]:
    """Naturality over every shape edge plus entailment preservation per node.

    A node without a specification or an edge without a constraint morphism
    in either system, or a node without a component, is reported, not raised.
    """
    if sys1.shape != sys2.shape:
        raise GraphMismatchError("system morphisms need a shared shape")
    systems = (("first", sys1), ("second", sys2))
    violations: list[str] = []
    for n in sys1.shape.nodes:
        lacking = [f"node '{n}': no specification in the {w} system" for w, s in systems
                   if n not in s.specs]
        comp = theta.components.get(n)
        if lacking:
            violations += lacking
        elif comp is None:
            violations.append(f"node '{n}': no component morphism")
        elif comp.src != sys1.specs[n].graph or comp.tgt != sys2.specs[n].graph:
            violations.append(f"node '{n}': component endpoints do not match")
    for eid, _, _ in sys1.shape.edges:
        violations += [f"edge '{eid}': no constraint morphism in the {w} system"
                       for w, s in systems if eid not in s.constraints]
    if violations:
        return (False, tuple(violations))
    for eid, src, tgt in sys1.shape.edges:
        left = compose_morphisms(sys1.constraints[eid], theta.components[tgt])
        right = compose_morphisms(theta.components[src], sys2.constraints[eid])
        if not _same_maps(left, right):
            violations.append(f"edge '{eid}': naturality fails")
    for n in sys1.shape.nodes:
        ok, offenders = is_spec_morphism(
            theta.components[n], sys1.specs[n], sys2.specs[n], bound
        )
        if not ok:
            violations.append(
                f"node '{n}': facts not preserved: "
                + ", ".join(format_fact(f) for f in offenders)
            )
    return (not violations, tuple(violations))
