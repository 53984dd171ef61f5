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
    so the bounds at which :func:`validate_system` has passed stay valid.
    """

    shape: Shape
    specs: Mapping[str, Specification]
    constraints: Mapping[str, GraphMorphism]

    def __post_init__(self):
        object.__setattr__(self, "specs", MappingProxyType(dict(self.specs)))
        object.__setattr__(self, "constraints", MappingProxyType(dict(self.constraints)))
        object.__setattr__(self, "_passed_bounds", set())

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
    skipped, and a translated fact as a problem of its edge. Each target node's
    class table is built once, when its first edge is checked. A system that passed
    at a bound is not checked again at that bound.
    """
    if bound in sys._passed_bounds:
        return []
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
        except BoundExceededError as exc:
            problems.append(f"edge '{eid}': {exc}")
            continue
        for f in offenders:
            problems.append(f"edge '{eid}': fact {format_fact(f)} is not preserved")
    if not problems:
        sys._passed_bounds.add(bound)
    return problems


def _core_id(tag: tuple[str, str]) -> str:
    return f"{tag[0]}__{tag[1]}"


def _core_classes(*ufs: UnionFind) -> list[tuple[dict, dict]]:
    """Core id per tag and the member tags per core id, for each union-find.

    A class is named by its least tag. Distinct tags can join to one name
    (``("a_", "b")`` and ``("a", "_b")`` both give ``a___b``); then each later
    class in tag order, types before aspects, takes the first ``_2``, ``_3``,
    ... suffix that names no other class, so ids are distinct across all the
    union-finds and every name that is not contested stays as it is.
    """
    classes = [uf.classes() for uf in ufs]
    taken = {_core_id(root) for groups in classes for root in groups}
    used: set[str] = set()
    out = []
    for groups in classes:
        core_id: dict[tuple[str, str], str] = {}
        members: dict[str, list[tuple[str, str]]] = {}
        for root in sorted(groups):
            cid = base = _core_id(root)
            if base in used:
                n = 2
                while f"{base}_{n}" in taken:
                    n += 1
                cid = f"{base}_{n}"
                taken.add(cid)
            used.add(cid)
            members[cid] = groups[root]
            core_id.update(dict.fromkeys(groups[root], cid))
        out.append((core_id, members))
    return out


def optimal_channel(ds: DistributedSystem) -> Channel:
    """Colimit of the graph diagram, with the induced link per node.

    Types and aspects of all node graphs are tagged by node and quotiented by
    the link identifications; the class id is the least (node, id) tag joined
    with a double underscore, suffixed only where two classes would share it,
    so cores print deterministically and survive a round trip through the
    text format. A shape edge without a link, and links whose aspect images
    are not single aspects, which cannot be quotiented, are rejected.
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

    types_uf = UnionFind((n, t.id) for n in ds.shape.nodes for t in ds.graphs[n].types)
    aspects_uf = UnionFind((n, a.id) for n in ds.shape.nodes for a in ds.graphs[n].aspects)
    for eid, src, tgt in ds.shape.edges:
        h = ds.links[eid]
        for tid, img in h.type_map.items():
            types_uf.union((src, tid), (tgt, img))
        for aid, img in h.aspect_map.items():
            aspects_uf.union((src, aid), (tgt, img.edges[0]))

    (type_class, type_members), (aspect_class, aspect_members) = _core_classes(
        types_uf, aspects_uf
    )

    core_types = []
    for cid, members in sorted(type_members.items()):
        rep = min(members)
        label = ds.graphs[rep[0]].type_by_id[rep[1]].label
        core_types.append(TypeNode(cid, label))

    core_aspects = []
    for cid, members in sorted(aspect_members.items()):
        rep = min(members)
        rep_aspect = ds.graphs[rep[0]].aspect_by_id[rep[1]]
        modifiers = frozenset().union(
            *(ds.graphs[n].aspect_by_id[a].modifiers for n, a in members)
        )
        core_aspects.append(
            Aspect(
                cid,
                type_class[(rep[0], rep_aspect.src)],
                type_class[(rep[0], rep_aspect.tgt)],
                rep_aspect.label,
                modifiers,
            )
        )

    core = Graph(types=tuple(core_types), aspects=tuple(core_aspects))
    links = {}
    for n in ds.shape.nodes:
        g = ds.graphs[n]
        links[n] = GraphMorphism(
            g,
            core,
            {t.id: type_class[(n, t.id)] for t in g.types},
            {
                a.id: Path(type_class[(n, a.src)], (aspect_class[(n, a.id)],))
                for a in g.aspects
            },
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
