"""Hypothesis strategies for small random graphs, paths, data, and morphisms."""

from __future__ import annotations

import re

from hypothesis import strategies as st

from olog.core import Aspect, Fact, Graph, Path, Specification, TypeNode, path_target
from olog.flow import GraphMorphism
from olog.instances import KeyDiagram


@st.composite
def graphs(draw, min_types=1, max_types=4, max_aspects=6):
    n_types = draw(st.integers(min_types, max_types))
    type_ids = [f"T{i}" for i in range(n_types)]
    types = tuple(TypeNode(id=t, label=f"a thing {t}") for t in type_ids)
    n_aspects = draw(st.integers(0, max_aspects))
    aspects = []
    for i in range(n_aspects):
        src = draw(st.sampled_from(type_ids))
        tgt = draw(st.sampled_from(type_ids))
        aspects.append(Aspect(id=f"e{i}", src=src, tgt=tgt, label=f"maps {i} to"))
    return Graph(types=types, aspects=tuple(aspects))


@st.composite
def cyclic_graphs(draw, max_types=3, max_aspects=3):
    """A graph of two or more types whose first two types lie on a cycle."""
    g = draw(graphs(min_types=2, max_types=max_types, max_aspects=max_aspects))
    cycle = (
        Aspect(id="r0", src="T0", tgt="T1", label="runs to"),
        Aspect(id="r1", src="T1", tgt="T0", label="runs back to"),
    )
    return Graph(types=g.types, aspects=g.aspects + cycle)


@st.composite
def paths_in(draw, graph: Graph, max_len=3, source: str | None = None):
    if source is None:
        source = draw(st.sampled_from([t.id for t in graph.types]))
    length = draw(st.integers(0, max_len))
    edges = []
    at = source
    for _ in range(length):
        outgoing = graph.aspects_from.get(at, ())
        if not outgoing:
            break
        a = draw(st.sampled_from(list(outgoing)))
        edges.append(a.id)
        at = a.tgt
    return Path(source, tuple(edges))


@st.composite
def composable_triples(draw, graph: Graph, max_len=2):
    p = draw(paths_in(graph, max_len))
    q = draw(paths_in(graph, max_len, source=path_target(graph, p)))
    r = draw(paths_in(graph, max_len, source=path_target(graph, q)))
    return p, q, r


@st.composite
def parallel_facts(draw, graph: Graph, max_len=2):
    from olog.core import enumerate_paths

    groups: dict[tuple[str, str], list[Path]] = {}
    for p in enumerate_paths(graph, max_len):
        groups.setdefault((p.source, path_target(graph, p)), []).append(p)
    key = draw(st.sampled_from(sorted(groups)))
    lhs = draw(st.sampled_from(groups[key]))
    rhs = draw(st.sampled_from(groups[key]))
    return Fact(lhs, rhs)


@st.composite
def specs_on(draw, graph: Graph, max_facts=3, max_len=2):
    n = draw(st.integers(0, max_facts))
    facts = [draw(parallel_facts(graph, max_len)) for _ in range(n)]
    return Specification(graph=graph, facts=tuple(facts))


@st.composite
def key_diagrams_on(draw, graph: Graph, max_keys=4):
    sets = {}
    for t in graph.types:
        n = draw(st.integers(0, max_keys))
        sets[t.id] = frozenset(f"{t.id}k{i}" for i in range(n))
    # Aspects with an empty target force an empty source.
    for a in graph.aspects:
        if not sets[a.tgt]:
            sets = {**sets, a.src: frozenset()}
    changed = True
    while changed:
        changed = False
        for a in graph.aspects:
            if not sets[a.tgt] and sets[a.src]:
                sets = {**sets, a.src: frozenset()}
                changed = True
    funcs = {}
    for a in graph.aspects:
        tgt_keys = sorted(sets[a.tgt])
        funcs[a.id] = {
            k: draw(st.sampled_from(tgt_keys)) for k in sorted(sets[a.src])
        }
    return KeyDiagram(sets=sets, funcs=funcs)


@st.composite
def morphisms(draw, max_image_len=2):
    """A random morphism between two random graphs, built to be total and
    endpoint-compatible by construction."""
    tgt = draw(graphs(min_types=1, max_types=3, max_aspects=5))
    tgt_ids = [t.id for t in tgt.types]
    n_types = draw(st.integers(1, 3))
    src_types = tuple(TypeNode(id=f"S{i}", label=f"a source {i}") for i in range(n_types))
    type_map = {t.id: draw(st.sampled_from(tgt_ids)) for t in src_types}

    # Candidate images grouped by endpoints in the target graph.
    from olog.core import enumerate_paths

    images: dict[tuple[str, str], list[Path]] = {}
    for p in enumerate_paths(tgt, max_image_len):
        images.setdefault((p.source, path_target(tgt, p)), []).append(p)

    # Loops take the source types in turn and other aspects often run
    # parallel to an earlier one, so the source has parallel paths. Each
    # aspect draws its image from those no parallel aspect has, where there
    # are any, so parallel aspects seldom share an image.
    src_ids = [t.id for t in src_types]
    aspects = []
    aspect_map = {}
    n_aspects = draw(st.integers(0, 5))
    for i in range(n_aspects):
        shape = draw(st.sampled_from(["loop", "parallel", "any"]))
        if shape == "loop":
            src_t = tgt_t = src_ids[i % n_types]
        elif shape == "parallel" and aspects:
            earlier = draw(st.sampled_from(aspects))
            src_t, tgt_t = earlier.src, earlier.tgt
        else:
            src_t = draw(st.sampled_from(src_ids))
            tgt_t = draw(st.sampled_from(src_ids))
        pool = images.get((type_map[src_t], type_map[tgt_t]), [])
        taken = {aspect_map[a.id] for a in aspects if (a.src, a.tgt) == (src_t, tgt_t)}
        fresh = [p for p in pool if p not in taken]
        pool = fresh or pool
        if not pool:
            continue
        img = draw(st.sampled_from(pool))
        aid = f"a{i}"
        aspects.append(Aspect(id=aid, src=src_t, tgt=tgt_t, label=f"maps {i} to"))
        aspect_map[aid] = img
    src = Graph(types=src_types, aspects=tuple(aspects))
    return GraphMorphism(src=src, tgt=tgt, type_map=type_map, aspect_map=aspect_map)


@st.composite
def links(draw):
    """A morphism that sends aspects to single aspects, as channel links do:
    a drawn morphism without the aspects it sends to identities."""
    h = draw(morphisms(max_image_len=1))
    kept = tuple(a for a in h.src.aspects if len(h.aspect_map[a.id]) == 1)
    return GraphMorphism(
        src=Graph(types=h.src.types, aspects=kept),
        tgt=h.tgt,
        type_map=h.type_map,
        aspect_map={a.id: h.aspect_map[a.id] for a in kept},
    )


_TYPE_LINE = re.compile(r"^\s*type\s+(\w+)", re.MULTILINE)
_ASPECT_LINE = re.compile(r"^\s*aspect\s+(\w+)", re.MULTILINE)
_WORD = re.compile(r"[A-Za-z_]\w*")
_SKETCH_LINES = (
    "product {t0} = {t1} * {t2} via ({a0},{a1})",
    "pullback {t0} = {t1} *_{t2} {t3} via ({a0},{a1}) legs ({a2},{a3})",
    "pullback {t0} = {t1} *_{t2} {t3} via ({a0};{a1},{a2}) legs ({a3},{a0})",
    "coproduct {t0} = {t1} + {t2} via ({a0},{a1})",
    "pushout {t0} = {t1} +_{t2} {t3} via ({a0},{a1}) span ({a2},{a3})",
    "image {t0} of {a0};{a1} via ({a2},{a3})",
    "singleton {t0}",
    "empty {t0}",
)


@st.composite
def mutated_olog_texts(draw, texts):
    """One of ``texts`` after one to three line-level edits.

    An edit drops, repeats or swaps lines, replaces one word of a line by an
    id of the file, or adds a sketch declaration over the file's type and
    aspect ids, so many mutants are near misses of well-formed ologs.
    """
    text = draw(st.sampled_from(texts))
    lines = text.splitlines()
    types = _TYPE_LINE.findall(text) or ["t"]
    aspects = _ASPECT_LINE.findall(text) or ["a"]
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "repeat", "swap", "rename", "sketch"]))
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "rename":
            words = list(_WORD.finditer(lines[i]))
            if words:
                w = draw(st.sampled_from(words))
                new = draw(st.sampled_from(types + aspects))
                lines[i] = lines[i][: w.start()] + new + lines[i][w.end():]
        else:
            form = draw(st.sampled_from(_SKETCH_LINES))
            ids = {f"t{k}": draw(st.sampled_from(types)) for k in range(4)}
            ids.update({f"a{k}": draw(st.sampled_from(aspects)) for k in range(4)})
            lines.insert(max(i, 1), "  " + form.format(**ids))
    return "\n".join(lines) + "\n"
