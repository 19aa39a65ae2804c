"""Isomorphism-free generation of graphs under degree, edge-count, sparsity,
and connectivity constraints, by orderly edge extension.

Each accepted graph is reached along a unique canonical path from the empty
graph (McKay, "Isomorph-free exhaustive generation", J. Algorithms 26, 1998).
The path removes one canonical edge at a time. Every vertex carries the
invariant (degree, sum of neighbour degrees); an edge's key is the sorted
pair of its endpoints' invariants followed by their number of common
neighbours. The canonical edge is, among the edges of largest key, the one
whose endpoints' canonical positions come last in graph6 order. A child is
kept only when its new edge lies in the automorphism orbit of its canonical
edge; candidate edges are tried once per parent-automorphism orbit. One
BFS over pairs computes edge orbits for both: it picks each orbit's first
candidate and runs the canonicity test.

The key is relabeling-invariant and cheap, so a child whose new edge does
not reach the largest key is rejected before it is canonized. Most are
rejected before they are built: adding an edge lowers no vertex invariant
and no common-neighbour count, so every edge of a child keys at least as
high as in the parent, and the child's largest key is at least the
parent's. The new edge's key in the child follows from the parent alone, so
a candidate whose key falls below the parent's largest key is dropped while
the candidates are listed. That bound is isomorphism-invariant, so it drops
whole orbits of candidates and leaves the stream as it was. No edge of an
accepted child keys above its new edge, so that key is the child's largest
and is passed down; no node scans its edges for it.

Every node takes one path: key test, expand, dead-end drop, canonize,
canonicity, shard, emit. A child that passes the key test is expanded
first; when the edge ceiling, the degree floor and the key bound leave it no
candidate edge and it does not emit, nothing can come from it, whether it is
accepted or not, and it is dropped uncanonized. Any other child is canonized
once, and its canonical code serves the acceptance test, the shard, the
child's own automorphism pruning and the output graph. Streams therefore
carry one canonically labeled representative per isomorphism class. Dense
regimes (min degree above half the graph) generate complements instead,
where the degree cap prunes far earlier; each emitted complement is
canonized once more on the direct side.

The top key also freezes vertices. A vertex's key after its next edge is at
most (deg + 1) * (n*n + cap), since every neighbour's degree is capped; once
that falls below the low end of the largest edge key, the vertex can gain no
edge anywhere below the node, because the largest key only grows down the
tree. A node with an edge floor still ahead (a degree floor is one, as
the degree window bounds the edge window) is dropped when the degree room
left on its unfrozen vertices, the sum of cap - deg, is under twice the
edges it still needs; a child so dropped is never canonized.

Streams are resumable: each DFS subtree rooted at depth min(5, the edge
ceiling) goes to the `partition` shard picked by a fixed mix of its root's
canonical code, and only shard 0 emits the nodes above that depth. A shard
depends on no other node, so no prune spares one; shards are disjoint, keep
the stream's order, and their union is the full stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .canon import _twin_transpositions, canon_raw
from .graph import Graph, complement, graph6_unpack, is_k_connected
from .rigidity import is_d_sparse

_SHARD_DEPTH = 5  # subtree hand-off level for --partition sharding


@dataclass(frozen=True)
class SearchSpec:
    """Degree/edge/sparsity window for constrained enumeration.

    degree_max defaults to n-1. An edge spends two units of degree, so the
    degree window bounds the edge window: edge_min rises to
    ceil(n*degree_min/2) and edge_max falls to floor(n*degree_max/2), or under
    d-sparsity to d*n - C(d+1,2) if lower. An empty window fails here. Shards
    take subtrees at depth min(5, the generated side's edge ceiling).
    """

    n: int
    degree_min: int = 0
    degree_max: Optional[int] = None
    edge_min: int = 0
    edge_max: Optional[int] = None
    d_sparse_filter: Optional[int] = None
    connectivity_min: Optional[int] = None

    def __post_init__(self) -> None:
        n, dmin = self.n, self.degree_min
        if n < 0:
            raise ValueError("n must be nonnegative")
        dmax = max(n - 1, 0) if self.degree_max is None else self.degree_max
        if not (0 <= dmin <= dmax <= max(n - 1, 0)):
            raise ValueError(f"infeasible degree bounds [{dmin}, {dmax}]")
        emin = self.edge_min if self.edge_min < 0 else max(self.edge_min, -(-n * dmin // 2))
        emax = n * dmax // 2 if self.edge_max is None else min(n * dmax // 2, self.edge_max)
        if self.d_sparse_filter is not None:
            d = self.d_sparse_filter
            if d < 1:
                raise ValueError("dimension must be >= 1")
            if n >= d + 2:
                emax = min(emax, d * n - math.comb(d + 1, 2))
        if not (0 <= emin <= emax):
            raise ValueError(f"infeasible edge window [{emin}, {emax}] "
                             f"for degrees [{dmin}, {dmax}] on {n} vertices")
        object.__setattr__(self, "degree_max", dmax)
        object.__setattr__(self, "edge_min", emin)
        object.__setattr__(self, "edge_max", emax)


def enumerate_constrained(
    spec: SearchSpec, partition: tuple[int, int] = (0, 1)
) -> Iterator[Graph]:
    """All isomorphism classes meeting the spec, canonically labeled."""
    shard_i, shard_m = partition
    if not (0 <= shard_i < shard_m):
        raise ValueError("partition must be (i, m) with 0 <= i < m")
    n = spec.n
    total = math.comb(n, 2)
    comp_cap = n - 1 - spec.degree_min
    use_complement = comp_cap < spec.degree_max
    if use_complement:
        # the complement's degree floor caps the direct-side max degree
        cap, floor = comp_cap, n - 1 - spec.degree_max
        lo, hi = total - spec.edge_max, total - spec.edge_min
    else:
        cap, floor = spec.degree_max, spec.degree_min
        lo, hi = spec.edge_min, spec.edge_max

    for adj, code in _grow(n, cap, floor, lo, hi, partition):
        g = graph6_unpack(n, code)
        if use_complement:
            g = complement(g)
        if _passes_final(g, spec):
            yield graph6_unpack(n, canon_raw(g.adj, n)[0]) if use_complement else g


def enumerate_regular(
    n: int, k: int, partition: tuple[int, int] = (0, 1)
) -> Iterator[Graph]:
    """All k-regular graphs on n vertices up to isomorphism."""
    return enumerate_constrained(SearchSpec(n=n, degree_min=k, degree_max=k), partition)


def _passes_final(g: Graph, spec: SearchSpec) -> bool:
    if spec.d_sparse_filter is not None and not is_d_sparse(g, spec.d_sparse_filter):
        return False
    if spec.connectivity_min is not None:
        ok, _ = is_k_connected(g, spec.connectivity_min)
        if not ok:
            return False
    return True


def _child_keys(keys: list[int], adj: list[int], degs: list[int],
                u: int, v: int, n: int) -> list[int]:
    """Each vertex's degree * n*n + sum of neighbour degrees after adding uv,
    from the parent's keys: only u, v and their neighbours change."""
    out = keys[:]
    out[u] += n * n + degs[v] + 1
    out[v] += n * n + degs[u] + 1
    for rest in (adj[u], adj[v]):
        while rest:
            low = rest & -rest
            out[low.bit_length() - 1] += 1
            rest ^= low
    return out


def _max_key_ties(adj: list[int], keys: list[int], u: int, v: int
                  ) -> Optional[list[tuple[int, int]]]:
    """None if some edge keys above edge uv; otherwise every edge whose key
    equals uv's, uv included, as (min, max) pairs."""
    ku, kv = keys[u], keys[v]
    lo, hi = (ku, kv) if ku <= kv else (kv, ku)
    above_lo = above_hi = at_lo = at_hi = 0
    for w, k in enumerate(keys):
        if k > lo:
            above_lo |= 1 << w
            if k > hi:
                above_hi |= 1 << w
            elif k == hi:
                at_hi |= 1 << w
        elif k == lo:
            at_lo |= 1 << w
    if lo == hi:
        at_hi = at_lo
    # an edge with both ends above lo, or one end at lo and the other above
    # hi, has the larger key
    rest = above_lo
    while rest:
        low = rest & -rest
        if adj[low.bit_length() - 1] & above_lo:
            return None
        rest ^= low
    common = (adj[u] & adj[v]).bit_count()
    ties = []
    rest = at_lo
    while rest:
        low = rest & -rest
        rest ^= low
        w = low.bit_length() - 1
        aw = adj[w]
        if aw & above_hi:
            return None
        others = aw & at_hi
        while others:
            bit = others & -others
            others ^= bit
            x = bit.bit_length() - 1
            if lo == hi and x < w:
                continue
            c = (aw & adj[x]).bit_count()
            if c > common:
                return None
            if c == common:
                ties.append((w, x) if w < x else (x, w))
    return ties


def _candidates(adj: list[int], degs: list[int], keys: list[int],
                top: tuple[int, int, int], cap: int, n: int
                ) -> dict[tuple[int, int], tuple[int, int, int]]:
    """Each non-edge uv whose endpoints both have degree below cap and whose
    edge key in G + uv is not below `top`, mapped to that key, in graph6
    pair order.

    The key comes from G alone: adding uv raises u's key by n*n + deg v + 1
    and v's by n*n + deg u + 1, and leaves their common neighbours as they
    are. A vertex x can end at or above top's low key only if
    keys[x] + n*n + cap reaches it, so the pair loop runs over those
    vertices only."""
    nn = n * n
    top_lo = top[0]
    reach = 0
    for x in range(n):
        if degs[x] < cap and keys[x] + nn + cap >= top_lo:
            reach |= 1 << x
    out = {}
    rest = reach
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        av = adj[v]
        v_base = keys[v] + nn + 1  # v's key in G + uv, less deg u
        u_gain = nn + degs[v] + 1
        others = reach & (low - 1) & ~av
        while others:
            bit = others & -others
            others ^= bit
            u = bit.bit_length() - 1
            ku = keys[u] + u_gain
            kv = v_base + degs[u]
            common = (adj[u] & av).bit_count()
            key = (ku, kv, common) if ku <= kv else (kv, ku, common)
            if key >= top:
                out[(u, v)] = key
    return out


def _grow(
    n: int,
    cap: int,
    dmin: int,
    edge_lo: int,
    edge_hi: int,
    partition: tuple[int, int],
) -> Iterator[tuple[list[int], int]]:
    """Canonical-construction-path DFS over edge additions.

    Yields (adjacency bitmasks, canonical code) for every tree node whose
    edge count lies in [edge_lo, edge_hi] and whose degrees are all at least
    dmin; the caller applies final filters. `pair_orbit` is the one orbit
    routine: it picks candidate representatives and tests canonicity. In the
    edgeless root every two vertices are twins, so the twin transpositions
    that canonization finds generate its automorphism group.

    Each child takes one path: key test (`_max_key_ties`), expand, dead-end
    drop, canonize, canonicity, shard, emit. A child with no candidate edge
    that does not emit is dropped before `canon_raw`; any other child takes
    its candidates down with it. `dfs` yields a node that emits and expands
    no node itself; the root's candidates come from `expand` too.
    """
    shard_i, shard_m = partition
    shard_depth = max(min(_SHARD_DEPTH, edge_hi), 1)  # only shard 0 emits the root

    def pair_orbit(e: tuple[int, int], gens: list[tuple[int, ...]]) -> set[tuple[int, int]]:
        orbit = {e}
        frontier = [e]
        while frontier:
            u, v = frontier.pop()
            for s in gens:
                w = (s[u], s[v]) if s[u] < s[v] else (s[v], s[u])
                if w not in orbit:
                    orbit.add(w)
                    frontier.append(w)
        return orbit

    def candidate_reps(
        cand: list[tuple[int, int]], gens: list[tuple[int, ...]]
    ) -> list[tuple[int, int]]:
        # cand is closed under the parent's automorphisms: each orbit's first
        # candidate represents it, whatever generating set gens is
        if not gens:
            return cand
        reps = []
        covered = set()
        for e in cand:
            if e not in covered:
                reps.append(e)
                covered |= pair_orbit(e, gens)
        return reps

    def is_canonical(e: tuple[int, int], ties: list[tuple[int, int]],
                     perm: tuple[int, ...], gens: list[tuple[int, ...]]) -> bool:
        """Whether e lies in the orbit of the tied edge whose canonical
        positions come last in graph6 order."""
        def g6_index(f: tuple[int, int]) -> int:
            i, j = perm[f[0]], perm[f[1]]
            if i > j:
                i, j = j, i
            return j * (j - 1) // 2 + i

        best = max(ties, key=g6_index)
        return best == e or e in pair_orbit(best, gens)

    def emits(m: int, deficit: int) -> bool:
        return m >= edge_lo and deficit == 0 and (m >= shard_depth or shard_i == 0)

    def expand(adj: list[int], degs: list[int], keys: list[int], m: int, deficit: int,
               top: tuple[int, int, int]) -> dict[tuple[int, int], tuple[int, int, int]]:
        """The node's candidate edges, mapped to their keys in the child; empty
        at the edge ceiling, when the unfrozen vertices lack the degree room
        to reach the edge floor, or when the degree floor or key bound
        leaves none."""
        if m == edge_hi:
            return {}
        if edge_lo > m:
            # below degree `thaw` a vertex is frozen: no later edge reaches top
            thaw = -(-top[0] // (n * n + cap)) - 1
            if sum(cap - dv for dv in degs if dv >= thaw) < 2 * (edge_lo - m):
                return {}
        budget = edge_hi - m - 1
        cand = _candidates(adj, degs, keys, top, cap, n)
        if deficit > 2 * budget:
            # the new edge must lift enough endpoints to the degree floor
            cand = {e: k for e, k in cand.items()
                    if deficit - (degs[e[0]] < dmin) - (degs[e[1]] < dmin) <= 2 * budget}
        return cand

    def dfs(adj: list[int], degs: list[int], keys: list[int], m: int, deficit: int,
            code: int, gens: list[tuple[int, ...]], top: tuple[int, int, int],
            cand: dict[tuple[int, int], tuple[int, int, int]]
            ) -> Iterator[tuple[list[int], int]]:
        if emits(m, deficit):
            yield adj, code
        for u, v in candidate_reps(list(cand), gens):
            adj2 = adj[:]
            adj2[u] |= 1 << v
            adj2[v] |= 1 << u
            keys2 = _child_keys(keys, adj, degs, u, v, n)
            ties = _max_key_ties(adj2, keys2, u, v)
            if ties is None:
                continue
            degs2 = degs[:]
            degs2[u] += 1
            degs2[v] += 1
            d2 = deficit - (degs[u] < dmin) - (degs[v] < dmin)
            # no edge of the child beats its new edge, so that key is its top
            top2 = cand[(u, v)]
            cand2 = expand(adj2, degs2, keys2, m + 1, d2, top2)
            if not cand2 and not emits(m + 1, d2):
                continue  # nothing comes from it, canonical or not
            code2, perm, cgens = canon_raw(adj2, n)
            if len(ties) > 1 and not is_canonical((u, v), ties, perm, cgens):
                continue
            # the subtree's shard is the Fibonacci hash of its root's code,
            # scaled to m; plain code % m sends the n=11 degree-2/3 stream
            # to one shard
            if m + 1 == shard_depth and shard_i != (
                    (code2 * 0x9E3779B97F4A7C15) & (2**64 - 1)) * shard_m >> 64:
                continue
            yield from dfs(adj2, degs2, keys2, m + 1, d2, code2, cgens, top2, cand2)

    root = [0] * n  # the edgeless graph's adjacency, degrees and keys; never mutated
    deficit = n * max(dmin, 0)
    top = (-1, -1, -1)  # every edge key is above it
    cand = expand(root, root, root, 0, deficit, top)
    yield from dfs(root, root, root, 0, deficit, 0, _twin_transpositions(root, n), top, cand)
