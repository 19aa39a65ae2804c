"""Immutable simple graphs on vertex set 0..n-1, plus graph6 I/O.

All mutating-style operations return new Graph values; instances are safe to
share across threads. Edges are stored as a sorted tuple of (min, max) pairs
so structurally equal graphs compare equal.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional


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
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
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


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple(itertools.combinations(range(n), 2)))


def complete_bipartite(s: int, t: int) -> Graph:
    return Graph(s + t, tuple((i, s + j) for i in range(s) for j in range(t)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complement(g: Graph) -> Graph:
    present = set(g.edges)
    es = tuple(e for e in itertools.combinations(range(g.n), 2) if e not in present)
    return Graph(g.n, es)


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
    """Exact k-connectivity by subset search; small k and n only.

    Returns (verdict, witness): when the verdict is False because a separating
    set of fewer than k vertices exists, the witness is a minimum one. A
    too-small graph (n <= k) is not k-connected but has no separator witness.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if g.n <= k:
        return (False, None)
    if not g.is_connected():
        return (False, frozenset())
    for size in range(1, k):
        for cut in itertools.combinations(range(g.n), size):
            if _separates(g, set(cut)):
                return (False, frozenset(cut))
    return (True, None)


def _separates(g: Graph, cut: set[int]) -> bool:
    rest = [v for v in range(g.n) if v not in cut]
    if len(rest) <= 1:
        return False
    blocked = 0
    for c in cut:
        blocked |= 1 << c
    seen = 1 << rest[0]
    q = deque([rest[0]])
    count = 1
    while q:
        for w in _bits(g.adj[q.popleft()] & ~blocked):
            if not (seen >> w & 1):
                seen |= 1 << w
                count += 1
                q.append(w)
    return count < len(rest)


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

_G6_HEADER = ">>graph6<<"


def graph6_encode(g: Graph) -> str:
    if g.n > 62:
        raise ValueError("graph6 support limited to n <= 62")
    out = [g.n + 63]
    bits = 0
    nbits = 0
    acc: list[int] = []
    for j in range(1, g.n):
        col = g.adj[j]
        for i in range(j):
            bits = (bits << 1) | (col >> i & 1)
            nbits += 1
            if nbits == 6:
                acc.append(bits + 63)
                bits = nbits = 0
    if nbits:
        acc.append((bits << (6 - nbits)) + 63)
    return bytes(out + acc).decode("ascii")


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
    need = (n * (n - 1) // 2 + 5) // 6
    body = data[1:]
    if len(body) != need:
        raise ValueError(f"graph6 body length {len(body)}, expected {need}")
    stream = 0
    for b in body:
        if not (63 <= b <= 126):
            raise ValueError("invalid graph6 byte")
        stream = (stream << 6) | (b - 63)
    total = 6 * len(body)
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if stream >> (total - 1 - pos) & 1:
                edges.append((i, j))
            pos += 1
    return Graph(n, tuple(edges))
