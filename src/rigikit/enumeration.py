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
edge; candidate edges are tried once per parent-automorphism orbit.

The key is relabeling-invariant and cheap, so a child whose new edge does
not reach the largest key is rejected before it is canonized. A child that
does is canonized once, and its canonical code serves the acceptance test,
the child's own automorphism pruning and the output graph. Streams therefore
carry one canonically labeled representative per isomorphism class. Dense
regimes (min degree above half the graph) generate complements instead,
where the degree cap prunes far earlier; each emitted complement is
canonized once more on the direct side.

Streams are resumable: DFS subtrees rooted at a fixed depth are dealt
round-robin to `partition` shards, so shard outputs are disjoint and their
union is the full stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from .canon import canon_raw
from .graph import Graph, complement, is_k_connected
from .rigidity import is_d_sparse

_SHARD_DEPTH = 5  # subtree hand-off level for --partition sharding


@dataclass(frozen=True)
class SearchSpec:
    """Degree/edge/sparsity window for constrained enumeration.

    degree_max defaults to n-1 and edge_max to C(n,2); bounds are validated
    eagerly so infeasible or odd-parity regular requests fail up front.
    """

    n: int
    degree_min: int = 0
    degree_max: Optional[int] = None
    edge_min: int = 0
    edge_max: Optional[int] = None
    d_sparse_filter: Optional[int] = None
    connectivity_min: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        dmax = max(self.n - 1, 0) if self.degree_max is None else self.degree_max
        emax = math.comb(self.n, 2) if self.edge_max is None else self.edge_max
        emax = min(emax, math.comb(self.n, 2))
        if self.d_sparse_filter is not None and self.n >= self.d_sparse_filter + 2:
            d = self.d_sparse_filter
            emax = min(emax, d * self.n - math.comb(d + 1, 2))
        object.__setattr__(self, "degree_max", dmax)
        object.__setattr__(self, "edge_max", emax)
        if not (0 <= self.degree_min <= dmax <= max(self.n - 1, 0)):
            raise ValueError(f"infeasible degree bounds [{self.degree_min}, {dmax}]")
        if self.degree_min == dmax and (self.n * dmax) % 2:
            raise ValueError(f"parity: no {dmax}-regular graph on {self.n} vertices")
        if self.n * self.degree_min > 2 * emax:
            raise ValueError("infeasible: min degree exceeds the edge budget")
        if self.edge_min > emax:
            raise ValueError(f"infeasible edge window [{self.edge_min}, {emax}]")


def enumerate_constrained(
    spec: SearchSpec, partition: tuple[int, int] = (0, 1)
) -> Iterator[Graph]:
    """All isomorphism classes meeting the spec, canonically labeled."""
    shard_i, shard_m = partition
    if not (0 <= shard_i < shard_m):
        raise ValueError("partition must be (i, m) with 0 <= i < m")
    n = spec.n
    if n == 0:
        if spec.edge_min == 0 and shard_i == 0:
            yield Graph(0)
        return

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
        if any(a.bit_count() < floor for a in adj):
            continue
        g = _from_code(n, code)
        if use_complement:
            g = complement(g)
            if _passes_final(g, spec):
                yield _from_code(n, canon_raw(g.adj, n)[0])
        elif _passes_final(g, spec):
            yield g


def enumerate_regular(
    n: int, k: int, partition: tuple[int, int] = (0, 1)
) -> Iterator[Graph]:
    """All k-regular graphs on n vertices up to isomorphism."""
    if not (0 <= k < max(n, 1)):
        raise ValueError(f"need 0 <= k < n, got k={k}, n={n}")
    spec = SearchSpec(n=n, degree_min=k, degree_max=k,
                      edge_min=n * k // 2, edge_max=n * k // 2)
    return enumerate_constrained(spec, partition)


@lru_cache(maxsize=64)
def _graph6_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Vertex pairs (i, j), i < j, in graph6 bit order."""
    return tuple((i, j) for j in range(1, n) for i in range(j))


def _from_code(n: int, code: int) -> Graph:
    """The graph whose graph6 bits, most significant first, are `code`."""
    pairs = _graph6_pairs(n)
    top = len(pairs) - 1
    edges = []
    while code:
        low = code & -code
        edges.append(pairs[top - low.bit_length() + 1])
        code ^= low
    return Graph(n, tuple(edges))


def _passes_final(g: Graph, spec: SearchSpec) -> bool:
    if spec.d_sparse_filter is not None and not is_d_sparse(g, spec.d_sparse_filter):
        return False
    if spec.connectivity_min is not None:
        ok, _ = is_k_connected(g, spec.connectivity_min)
        if not ok:
            return False
    return True


def _vertex_keys(adj: list[int], n: int) -> list[int]:
    """Each vertex's (degree, sum of neighbour degrees), packed into one int
    that orders like the pair (the sum is below n*n)."""
    degs = [a.bit_count() for a in adj]
    keys = []
    for w in range(n):
        s = 0
        rest = adj[w]
        while rest:
            low = rest & -rest
            s += degs[low.bit_length() - 1]
            rest ^= low
        keys.append(degs[w] * n * n + s)
    return keys


def _edge_key(adj: list[int], keys: list[int], a: int, b: int) -> tuple[int, int, int]:
    """The sorted endpoint keys of edge ab, then its common-neighbour count."""
    ka, kb = keys[a], keys[b]
    common = (adj[a] & adj[b]).bit_count()
    return (ka, kb, common) if ka <= kb else (kb, ka, common)


def _child_keys(keys: list[int], adj: list[int], degs: list[int],
                u: int, v: int, n: int) -> list[int]:
    """`_vertex_keys` after adding edge uv, from the parent's keys, adjacency
    and degrees: only u, v and their neighbours change."""
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
    """None if some edge has a larger `_edge_key` than edge uv; otherwise
    every edge whose key equals uv's, uv included, as (min, max) pairs."""
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
    edge count lies in [edge_lo, edge_hi]; the caller applies final filters.
    """
    shard_i, shard_m = partition
    if cap <= 0 or edge_hi <= 0:
        if edge_lo <= 0 and shard_i == 0:
            yield [0] * n, 0
        return
    shard_depth = min(_SHARD_DEPTH, edge_hi)
    all_pairs = _graph6_pairs(n)

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
        if not gens or len(cand) < 2:
            return cand
        idx = {e: i for i, e in enumerate(cand)}
        parent = list(range(len(cand)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for s in gens:
            for e, i in idx.items():
                u, v = e
                w = (s[u], s[v]) if s[u] < s[v] else (s[v], s[u])
                j = idx.get(w)
                if j is not None:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[ri] = rj
        return [e for i, e in enumerate(cand) if find(i) == i]

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

    shard_counter = 0

    # generators of the full symmetric group serve the (edgeless) root
    if n >= 2:
        rot = tuple(range(1, n)) + (0,)
        swap = (1, 0) + tuple(range(2, n))
        root_gens = [rot, swap] if n > 2 else [swap]
    else:
        root_gens = []

    def dfs(adj: list[int], degs: list[int], keys: list[int], m: int, deficit: int,
            code: int, gens: list[tuple[int, ...]]) -> Iterator[tuple[list[int], int]]:
        nonlocal shard_counter
        if m >= edge_lo and (m >= shard_depth or shard_i == 0):
            yield adj, code
        if m == edge_hi:
            return
        free = sum(cap - dv for dv in degs)
        if m + 1 + (free - 2) // 2 < edge_lo:
            return
        budget = edge_hi - m - 1
        cand = []
        for u, v in all_pairs:
            if adj[u] >> v & 1:
                continue
            du, dv = degs[u], degs[v]
            if du >= cap or dv >= cap:
                continue
            d_child = deficit - (du < dmin) - (dv < dmin)
            if d_child > 2 * budget:
                continue
            cand.append((u, v))
        for u, v in candidate_reps(cand, gens):
            adj2 = adj[:]
            adj2[u] |= 1 << v
            adj2[v] |= 1 << u
            keys2 = _child_keys(keys, adj, degs, u, v, n)
            ties = _max_key_ties(adj2, keys2, u, v)
            if ties is None:
                continue
            code2, perm, cgens = canon_raw(adj2, n)
            if len(ties) > 1 and not is_canonical((u, v), ties, perm, cgens):
                continue
            if m + 1 == shard_depth:
                shard_counter += 1
                if (shard_counter - 1) % shard_m != shard_i:
                    continue
            degs2 = degs[:]
            degs2[u] += 1
            degs2[v] += 1
            d2 = deficit - (degs[u] < dmin) - (degs[v] < dmin)
            yield from dfs(adj2, degs2, keys2, m + 1, d2, code2, cgens)

    yield from dfs([0] * n, [0] * n, [0] * n, 0, n * max(dmin, 0), 0, root_gens)
