"""Named graph families and the graph operations used to build them:
overlapping-clique families, 0/1-extensions, vertex splits, coning, and
2-/t-sums.

Family conventions: the first clique takes labels 0..k-1, the shared clique
occupies its top labels, and the second clique reuses those plus fresh labels.
Deleted edges are lexicographically least among the allowed choices, so
constructions are reproducible; the isomorphism class never depends on this.
The glued-cliques-plus family keeps one placement per class: it fixes the
first deleted edge by symmetry, skips a placement whose signature it has
seen, and checks the canonical code of the rest (see
`enumerate_glued_cliques_plus` for the orbit argument).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Union

from .canon import canon_raw
from .graph import Graph


@dataclass(frozen=True)
class LabeledConstruction:
    graph: Graph
    roles: dict = field(default_factory=dict)

    def role_json(self) -> dict:
        out = {}
        for k, v in self.roles.items():
            if isinstance(v, frozenset):
                out[k] = sorted(v)
            elif isinstance(v, dict):
                out[k] = {str(a): b for a, b in v.items()}
            else:
                out[k] = list(v) if isinstance(v, tuple) else v
        return out


GraphLike = Union[Graph, LabeledConstruction]


def _graph_of(g: GraphLike) -> Graph:
    return g.graph if isinstance(g, LabeledConstruction) else g


def _clique_edges(vertices: Iterable[int]) -> set[tuple[int, int]]:
    return {(min(u, v), max(u, v)) for u, v in itertools.combinations(vertices, 2)}


def build_glued_cliques(d: int, t: int) -> LabeledConstruction:
    """Two copies of K_{d+2} overlapping in K_t, with one shared edge removed.

    |V| = 2(d+2) - t and |E| = 2 C(d+2,2) - C(t,2) - 1; the removed edge is
    the least pair inside the shared clique, which needs t >= 2.
    """
    if d < 3 or not (2 <= t <= d - 1):
        raise ValueError(f"need d >= 3 and 2 <= t <= d-1, got d={d}, t={t}")
    c1 = tuple(range(d + 2))
    shared = tuple(range(d + 2 - t, d + 2))
    c2 = shared + tuple(range(d + 2, 2 * (d + 2) - t))
    removed = (shared[0], shared[1])
    edges = (_clique_edges(c1) | _clique_edges(c2)) - {removed}
    g = Graph(2 * (d + 2) - t, tuple(edges))
    return LabeledConstruction(g, roles={
        "clique1": c1, "clique2": c2, "shared": shared, "removed_edge": removed,
    })


def _placement_signature(deleted, shared: set[int]) -> tuple:
    """The deleted edges as a graph on their ends, each end colored shared or
    private, up to color-preserving relabeling.

    Three rounds of color refinement give it. Each component has at most 4
    vertices, so a vertex's color then records its whole component, and
    refinement identifies colored forests. The triangle, the one other graph
    with 3 edges, is the only one whose every vertex has degree 2.
    """
    nbrs: dict[int, list[int]] = {}
    for u, v in deleted:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    color = {v: v in shared for v in nbrs}
    for _ in range(3):
        color = {v: (color[v], tuple(sorted(color[u] for u in nb)))
                 for v, nb in nbrs.items()}
    return tuple(sorted(color.values()))


def enumerate_glued_cliques_plus(d: int) -> list[LabeledConstruction]:
    """All graphs (K_{d+3} u K_{d+2}) - {e,f,g} with the two cliques
    overlapping in K_{d-1}, up to isomorphism.

    Placement rules: e lies inside the shared clique (so it is an edge of
    both cliques); f and g are further edges of the big clique; the three
    deleted edges never share a common end-vertex; and when neither f nor g
    lies inside the shared clique they must not share an end-vertex.

    Each class keeps its first placement in the order e, then (f, g), each
    lexicographic. Three steps find it and canonize once per signature.
    S_4 on the big clique's private vertices times S_{d-1} on the shared
    ones fixes the construction and the rules.

    - One e. S_{d-1} is transitive on shared pairs, so every class has a
      placement with e the least shared pair, and that e comes first.
    - A window of 10 labels for f and g. A placement whose f or g ends at a
      shared label w >= 10 leaves some shared label u in 6..9 off f and g,
      and swapping u and w fixes e and gives an earlier placement of the
      same class. So no first placement leaves the window, and from d = 7 on the
      loop does the same work at every d.
    - A signature skip. Two placements with one signature
      (`_placement_signature`) differ by a color-preserving bijection of
      the deleted edges' ends. It extends to an element of S_4 x S_{d-1},
      so they lie in one orbit, and the later one is skipped before its
      graph is built. Distinct signatures may still give isomorphic
      graphs, so a canonical code check keeps the first of those.
    """
    if d < 3:
        raise ValueError("need d >= 3")
    n = d + 6
    c1 = tuple(range(d + 3))
    shared = tuple(range(4, d + 3))  # top d-1 labels of the big clique
    c2 = shared + (d + 3, d + 4, d + 5)
    base = _clique_edges(c1) | _clique_edges(c2)
    shared_set = set(shared)
    e = (shared[0], shared[1])
    rest = [x for x in sorted(_clique_edges(c1[:10])) if x != e]  # the window

    out: list[LabeledConstruction] = []
    signatures: set[tuple] = set()
    seen: set[int] = set()
    for f, g in itertools.combinations(rest, 2):
        if set(e) & set(f) & set(g):
            continue
        f_inside = set(f) <= shared_set
        g_inside = set(g) <= shared_set
        if not f_inside and not g_inside and set(f) & set(g):
            continue
        signature = _placement_signature((e, f, g), shared_set)
        if signature in signatures:
            continue
        signatures.add(signature)
        graph = Graph(n, tuple(base - {e, f, g}))
        code, _, _ = canon_raw(graph.adj, n)
        if code in seen:
            continue
        seen.add(code)
        out.append(LabeledConstruction(graph, roles={
            "clique1": c1, "clique2": c2, "shared": shared,
            "removed_e": e, "removed_f": f, "removed_g": g,
        }))
    return out


def zero_extension(g: GraphLike, d: int, neighbors: Iterable[int]) -> Graph:
    """Add one new vertex joined to exactly d existing vertices."""
    gr = _graph_of(g)
    nb = list(neighbors)
    if len(set(nb)) != len(nb):
        raise ValueError("duplicate neighbors")
    if len(nb) != d:
        raise ValueError(f"0-extension needs exactly {d} neighbors")
    if any(not 0 <= v < gr.n for v in nb):
        raise ValueError("neighbor out of range")
    v = gr.n
    return Graph(gr.n + 1, gr.edges + tuple((u, v) for u in nb))


def one_extension(
    g: GraphLike, d: int, neighbors: Iterable[int], removed: tuple[int, int]
) -> Graph:
    """Delete the edge xy and add a new vertex joined to d+1 vertices
    including x and y."""
    gr = _graph_of(g)
    nb = list(neighbors)
    x, y = removed
    if len(set(nb)) != len(nb) or len(nb) != d + 1:
        raise ValueError(f"1-extension needs exactly {d + 1} distinct neighbors")
    if x not in nb or y not in nb:
        raise ValueError("removed edge endpoints must be among the neighbors")
    gr = gr.without_edge(x, y)  # raises when absent
    v = gr.n
    return Graph(gr.n + 1, gr.edges + tuple((u, v) for u in nb))


def vertex_split(
    g: GraphLike, d: int, v: int, hinge: Iterable[int], part1: Iterable[int]
) -> Graph:
    """Replace v by an adjacent pair v1, v2 sharing the d-1 hinge neighbors;
    the rest of N(v) is split between them (part1 goes to v1). v1 keeps the
    label v, v2 becomes the new top label."""
    gr = _graph_of(g)
    hs = list(hinge)
    p1 = set(part1)
    nv = set(gr.neighbors(v))
    if len(hs) != d - 1 or len(set(hs)) != len(hs) or not set(hs) <= nv:
        raise ValueError("hinge must be d-1 distinct neighbors of v")
    if not p1 <= nv - set(hs):
        raise ValueError("part1 must be neighbors of v outside the hinge")
    v2 = gr.n
    edges = [e for e in gr.edges if v not in e]
    keep_v1 = p1 | set(hs)
    move_v2 = (nv - set(hs) - p1) | set(hs)
    edges += [(min(v, u), max(v, u)) for u in keep_v1]
    edges += [(u, v2) for u in sorted(move_v2)]
    edges.append((v, v2))
    return Graph(gr.n + 1, tuple(edges))


def cone(g: GraphLike) -> Graph:
    """Add an apex vertex adjacent to every existing vertex."""
    gr = _graph_of(g)
    apex = gr.n
    return Graph(gr.n + 1, gr.edges + tuple((u, apex) for u in range(gr.n)))


def two_sum(g1: GraphLike, g2: GraphLike, u: int, v: int) -> LabeledConstruction:
    """Glue along the shared edge uv (same labels in both inputs) and delete
    it. The second summand's other vertices are relabeled past the first's."""
    return t_sum(g1, g2, (u, v), (u, v))


def t_sum(
    g1: GraphLike, g2: GraphLike, shared: Iterable[int], e: tuple[int, int]
) -> LabeledConstruction:
    """Glue along a shared clique K_t (same labels in both inputs) and delete
    the edge e inside it."""
    a, b = _graph_of(g1), _graph_of(g2)
    sh = tuple(shared)
    if len(sh) < 2:
        raise ValueError("t-sum needs t >= 2")
    if any(not (0 <= x < min(a.n, b.n)) for x in sh):
        raise ValueError("shared vertices must be labels of both summands")
    for gr, name in ((a, "first"), (b, "second")):
        for x, y in itertools.combinations(sh, 2):
            if not gr.has_edge(x, y):
                raise ValueError(f"shared vertices do not induce a clique in {name} summand")
    ex, ey = min(e), max(e)
    if ex not in sh or ey not in sh:
        raise ValueError("deleted edge must lie inside the shared clique")
    mapping = {x: x for x in sh}
    nxt = a.n
    for x in range(b.n):
        if x not in mapping:
            mapping[x] = nxt
            nxt += 1
    edges = set(a.edges)
    edges |= {(min(mapping[x], mapping[y]), max(mapping[x], mapping[y])) for x, y in b.edges}
    edges.discard((ex, ey))
    g = Graph(nxt, tuple(edges))
    return LabeledConstruction(g, roles={
        "shared": sh, "removed_edge": (ex, ey),
        "second_summand_map": dict(sorted(mapping.items())),
    })
