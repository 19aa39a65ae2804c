"""Immutable simple graphs on vertex set 0..n-1, plus graph6 I/O.

All mutating-style operations return new Graph values; instances are safe to
share across threads. Edges are stored as a sorted tuple of (min, max) pairs
so structurally equal graphs compare equal.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = set()
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            # an ordered pair tuple is kept as given, so graphs built from
            # shared pair tuples (as the enumerator's are) share them
            if u > v or type(e) is not tuple:
                e = (min(u, v), max(u, v))
            norm.add(e)
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adj(self) -> tuple[int, ...]:
        """Neighbor bitmasks, one int per vertex."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError("vertex out of range")
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self.n:
            raise ValueError("vertex out of range")
        return tuple(_bits(self.adj[v]))

    def with_edge(self, u: int, v: int) -> "Graph":
        return Graph(self.n, self.edges + ((u, v),))

    def without_edge(self, u: int, v: int) -> "Graph":
        e = (min(u, v), max(u, v))
        if e not in self.edges:
            raise ValueError(f"edge {e} absent")
        return Graph(self.n, tuple(x for x in self.edges if x != e))

    def relabel(self, perm: Iterable[int]) -> "Graph":
        """Image graph under vertex map v -> perm[v]."""
        p = list(perm)
        return Graph(self.n, tuple((p[u], p[v]) for u, v in self.edges))

    def induced(self, vertices: Iterable[int]) -> "Graph":
        vs = sorted(set(vertices))
        idx = {v: i for i, v in enumerate(vs)}
        keep = set(vs)
        es = tuple((idx[u], idx[v]) for u, v in self.edges if u in keep and v in keep)
        return Graph(len(vs), es)

    def components(self) -> list[frozenset[int]]:
        seen = [False] * self.n
        out = []
        for s in range(self.n):
            if seen[s]:
                continue
            comp = {s}
            seen[s] = True
            q = deque([s])
            while q:
                for w in _bits(self.adj[q.popleft()]):
                    if not seen[w]:
                        seen[w] = True
                        comp.add(w)
                        q.append(w)
            out.append(frozenset(comp))
        return out

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    # --- graph6 (standard format, n <= 62) ---

    def to_graph6(self) -> str:
        return graph6_encode(self)

    @staticmethod
    def from_graph6(s: str) -> "Graph":
        return graph6_decode(s)


def _bits(mask: int) -> list[int]:
    """The set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple(itertools.combinations(range(n), 2)))


def complete_bipartite(s: int, t: int) -> Graph:
    if s < 0 or t < 0:
        raise ValueError("part sizes must be nonnegative")
    return Graph(s + t, tuple((i, s + j) for i in range(s) for j in range(t)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complement(g: Graph) -> Graph:
    """The graph of g's non-edges, built from the shared `graph6_pairs`
    tuples, so complements of one order share their edge tuples."""
    present = set(g.edges)
    return Graph(g.n, tuple(e for e in graph6_pairs(g.n) if e not in present))


def contract_edge(g: Graph, u: int, v: int) -> Graph:
    """Merge v into u; parallel edges collapse, loops drop; vertices relabel densely."""
    if not g.has_edge(u, v):
        raise ValueError(f"edge ({u},{v}) absent, cannot contract")
    a, b = min(u, v), max(u, v)
    # b disappears; vertices above b shift down by one
    def remap(x: int) -> int:
        if x == b:
            return a
        return x - 1 if x > b else x

    es = set()
    for p, q in g.edges:
        p2, q2 = remap(p), remap(q)
        if p2 != q2:
            es.add((min(p2, q2), max(p2, q2)))
    return Graph(g.n - 1, tuple(es))


def distance(g: Graph, x: int, y: int) -> Optional[int]:
    """BFS shortest-path length; None when unreachable."""
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError("vertex out of range")
    if x == y:
        return 0
    dist = {x: 0}
    q = deque([x])
    while q:
        cur = q.popleft()
        for w in _bits(g.adj[cur]):
            if w not in dist:
                dist[w] = dist[cur] + 1
                if w == y:
                    return dist[w]
                q.append(w)
    return None


def degree_profile(g: Graph) -> tuple[int, int, tuple[int, ...]]:
    """(min degree, max degree, per-vertex degrees)."""
    degs = g.degrees
    if not degs:
        return (0, 0, ())
    return (min(degs), max(degs), degs)


def is_k_connected(g: Graph, k: int) -> tuple[bool, Optional[frozenset[int]]]:
    """Exact k-connectivity by vertex-disjoint augmenting paths (Menger).

    Returns (verdict, witness): when the verdict is False because a separating
    set of fewer than k vertices exists, the witness is a minimum one. A
    too-small graph (n <= k) is not k-connected but has no separator witness.

    A minimum separator S (|S| < k) misses one of the vertices 0..k-1; the
    first such vertex i has a non-neighbour j > i on another side of S. So
    the local connectivities of the non-adjacent pairs (i, j), i < k < n,
    j > i, attain the vertex connectivity (Even, SIAM J. Comput. 4, 1975).
    Each flow stops once it reaches the best cut found so far. The witness
    is the source-side minimum separator of the first pair, in that order,
    whose flow is the minimum; it depends only on the graph.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if g.n <= k:
        return (False, None)
    adj = g.adj
    best = k
    witness = None
    for s in range(k):
        for t in range(s + 1, g.n):
            if adj[s] >> t & 1:
                continue
            cut = _min_vertex_cut(adj, s, t, best)
            if cut is not None:
                best = len(cut)
                witness = cut
    return (witness is None, witness)


def _min_vertex_cut(
    adj: tuple[int, ...], s: int, t: int, cap: int
) -> Optional[frozenset[int]]:
    """A minimum vertex set separating non-adjacent s and t, if it has fewer
    than `cap` vertices; None otherwise.

    Unit-capacity flow on the split graph: vertex v becomes v_in -> v_out
    with capacity one, and each edge uv the arcs u_out -> v_in and
    v_out -> u_in of unbounded capacity. A vertex carries at most one unit
    of flow, which enters from pred[v] and leaves to succ[v]. After the last
    search finds no augmenting path, the cut is the vertices whose in-side
    the search reached and whose out-side it did not: the minimum cut
    nearest s, the same for every maximum flow.
    """
    n = len(adj)
    pred = [-1] * n
    succ = [-1] * n
    # common neighbours are disjoint two-edge paths: start from them
    flow = 0
    common = adj[s] & adj[t]
    while common:
        low = common & -common
        w = low.bit_length() - 1
        common ^= low
        pred[w] = s
        succ[w] = t
        flow += 1
    while flow < cap:
        # BFS over states 2v (v_in) and 2v+1 (v_out), from s_out
        parent = {2 * s + 1: -1}
        queue = [2 * s + 1]
        found = -1
        for x in queue:
            v = x >> 1
            if x & 1:
                nbrs = adj[v] & ~(1 << s)
                if nbrs >> t & 1:
                    found = x
                    break
                while nbrs:
                    low = nbrs & -nbrs
                    nbrs ^= low
                    y = 2 * (low.bit_length() - 1)
                    if y not in parent:
                        parent[y] = x
                        queue.append(y)
                if v != s and pred[v] >= 0 and 2 * v not in parent:
                    parent[2 * v] = x  # back over the used capacity of v
                    queue.append(2 * v)
            else:
                # v_in of a free vertex leads to v_out; of a used one, back
                # along the flow arc that enters v
                y = 2 * v + 1 if pred[v] < 0 else 2 * pred[v] + 1
                if y not in parent:
                    parent[y] = x
                    queue.append(y)
        if found < 0:
            return frozenset(v for v in range(n)
                             if 2 * v in parent and 2 * v + 1 not in parent)
        # augment along s_out -> ... -> found -> t_in: a forward edge arc
        # u_out -> w_in sets succ[u] and pred[w], overwriting the arcs the
        # path cancels; a step back over a vertex's capacity frees it
        succ[found >> 1] = t
        x = found
        while parent[x] >= 0:
            prev = parent[x]
            u, w = prev >> 1, x >> 1
            if prev & 1 and not x & 1:
                if u == w:
                    pred[w] = succ[w] = -1
                else:
                    if u != s:
                        succ[u] = w
                    pred[w] = u
            x = prev
        flow += 1
    return None


def find_deg23_witness(g: Graph) -> Optional[tuple[int, int]]:
    """A pair (x, y) with deg x = 2, deg y = 3 and distance >= 3, if any."""
    degs = g.degrees
    twos = [v for v in range(g.n) if degs[v] == 2]
    threes = [v for v in range(g.n) if degs[v] == 3]
    if not twos or not threes:
        return None
    for x in twos:
        # everything within distance 2 of x
        near = g.adj[x] | (1 << x)
        for w in _bits(g.adj[x]):
            near |= g.adj[w]
        for y in threes:
            if not (near >> y & 1):
                return (x, y)
    return None


# --- graph6 ---
# The one definition of the graph6 bit order: canonical codes, the enumerator
# and to_graph6 all go through the four functions below, so they agree.

_G6_HEADER = ">>graph6<<"


@lru_cache(maxsize=64)
def graph6_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Vertex pairs (i, j), i < j, in graph6 bit order."""
    return tuple((i, j) for j in range(1, n) for i in range(j))


def graph6_pack(nbrs: Sequence[Sequence[int]], order: Sequence[int]) -> int:
    """The graph6 bits, most significant first, of the graph with neighbour
    lists `nbrs` relabeled so that vertex order[i] becomes i."""
    n = len(order)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    code = 0
    for j in range(1, n):
        row = 0
        for x in nbrs[order[j]]:
            i = pos[x]
            if i < j:
                row |= 1 << (j - 1 - i)
        code = (code << j) | row
    return code


def graph6_unpack(n: int, code: int) -> Graph:
    """The graph on n vertices whose graph6 bits, most significant first,
    are `code`."""
    pairs = graph6_pairs(n)
    top = len(pairs) - 1
    edges = []
    while code:
        low = code & -code
        edges.append(pairs[top - low.bit_length() + 1])
        code ^= low
    return Graph(n, tuple(edges))


def graph6_bytes(n: int, code: int) -> bytes:
    """The graph6 bytes of the graph on n vertices whose packed bits are
    `code`."""
    if n > 62:
        raise ValueError("graph6 support limited to n <= 62")
    nbits = n * (n - 1) // 2
    pad = (-nbits) % 6
    stream = code << pad
    out = [n + 63]
    for k in range((nbits + pad) // 6 - 1, -1, -1):
        out.append(((stream >> (6 * k)) & 63) + 63)
    return bytes(out)


def graph6_encode(g: Graph) -> str:
    code = graph6_pack([_bits(a) for a in g.adj], range(g.n))
    return graph6_bytes(g.n, code).decode("ascii")


def graph6_decode(s: str) -> Graph:
    s = s.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):].strip()
    data = s.encode("ascii")
    if not data:
        raise ValueError("empty graph6 string")
    n = data[0] - 63
    if not (0 <= n <= 62):
        raise ValueError("graph6 support limited to n <= 62")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = data[1:]
    if len(body) != need:
        raise ValueError(f"graph6 body length {len(body)}, expected {need}")
    stream = 0
    for b in body:
        if not (63 <= b <= 126):
            raise ValueError("invalid graph6 byte")
        stream = (stream << 6) | (b - 63)
    # the last byte's low bits are padding
    return graph6_unpack(n, stream >> (6 * need - nbits))
