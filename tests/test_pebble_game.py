"""The d=2 oracle against an exact combinatorial reference.

The (2,3) pebble game (Jacobs & Hendrickson, J. Comput. Phys. 137, 1997)
computes the rank of an edge set in the generic 2D rigidity matroid, which
by Laman's theorem is the (2,3)-sparsity matroid. It shares no code with
`linalg`, draws no random numbers and needs no field, so it checks the
rank, rigidity and circuit flags that `rigidity` derives from eliminations.
"""

import random

from rigikit import Graph, generic_rank, is_circuit


def pebble_rank(n: int, edges) -> int:
    """Number of edges the (2,3) pebble game accepts, in the given order."""
    pebbles = [2] * n
    out = [[] for _ in range(n)]  # accepted edges, directed away from a pebble
    rank = 0
    for u, v in edges:
        while pebbles[u] + pebbles[v] < 4:
            if not (_fetch(u, v, pebbles, out) or _fetch(v, u, pebbles, out)):
                break
        if pebbles[u] + pebbles[v] == 4:
            pebbles[u] -= 1
            out[u].append(v)
            rank += 1
    return rank


def _fetch(x: int, keep: int, pebbles: list[int], out: list[list[int]]) -> bool:
    """Move one free pebble to x along a directed path avoiding `keep`,
    reversing the path; False when x is full or no pebble is reachable."""
    if pebbles[x] == 2:
        return False
    parent = {x: None}
    stack = [x]
    while stack:
        a = stack.pop()
        for b in out[a]:
            if b in parent or b == keep:
                continue
            parent[b] = a
            if pebbles[b]:
                pebbles[b] -= 1
                pebbles[x] += 1
                while parent[b] is not None:
                    a = parent[b]
                    out[a].remove(b)
                    out[b].append(a)
                    b = a
                return True
            stack.append(b)
    return False


def reference_flags(g: Graph) -> dict:
    """Rank, rigidity and circuit flags of G in the 2D rigidity matroid."""
    r = pebble_rank(g.n, g.edges)
    circuit = r == g.m - 1 and all(
        pebble_rank(g.n, [f for f in g.edges if f != e]) == g.m - 1 for e in g.edges)
    rigid = r == 2 * g.n - 3 if g.n >= 2 else True
    return {"rank": r, "independent": r == g.m, "rigid": rigid,
            "circuit": circuit, "flexible_circuit": circuit and not rigid}


def laman_graph(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A minimally rigid graph on n >= 2 vertices by Henneberg moves."""
    edges = {(0, 1)}
    for v in range(2, n):
        if v >= 3 and rng.random() < 0.5:
            # edge split: remove ab, join v to a, b and one more vertex
            a, b = rng.choice(sorted(edges))
            c = rng.choice([w for w in range(v) if w not in (a, b)])
            edges.remove((a, b))
            edges |= {(a, v), (b, v), (c, v)}
        else:
            a, b = rng.sample(range(v), 2)
            edges |= {(a, v), (b, v)}
    return sorted(edges)


def relabel(rng: random.Random, n: int, edges) -> Graph:
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, tuple((perm[u], perm[v]) for u, v in edges))


def test_pebble_game_basics():
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert pebble_rank(4, k4) == 5
    assert reference_flags(Graph(4, tuple(k4)))["circuit"]
    rng = random.Random(3)
    for n in range(2, 12):
        assert pebble_rank(n, laman_graph(rng, n)) == 2 * n - 3


def sample_graphs(rng: random.Random):
    """Random graphs, minimally rigid graphs plus extra edges, and the unique
    circuit of a minimally rigid graph plus one edge, with or without an
    isolated vertex (so that |E| is at most and above the count bound)."""
    for _ in range(60):
        n = rng.randrange(2, 13)
        p = rng.uniform(0.2, 0.7)
        yield Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)
                             if rng.random() < p))
    for _ in range(60):
        n = rng.randrange(4, 12)
        edges = set(laman_graph(rng, n))
        missing = [(u, v) for u in range(n) for v in range(u + 1, n)
                   if (u, v) not in edges]
        edges |= set(rng.sample(missing, min(len(missing), rng.randrange(1, 3))))
        g = relabel(rng, n, sorted(edges))
        yield g
        # the edges whose deletion keeps the rank form the unique circuit
        r = pebble_rank(g.n, g.edges)
        circ = [e for e in g.edges
                if pebble_rank(g.n, [f for f in g.edges if f != e]) == r]
        verts = sorted({v for e in circ for v in e})
        idx = {v: i for i, v in enumerate(verts)}
        extra = rng.randrange(2)
        yield relabel(rng, len(verts) + extra, [(idx[u], idx[v]) for u, v in circ])


def test_oracle_matches_pebble_game():
    rng = random.Random(0x2D)
    circuits = dependent_within_bound = 0
    for g in sample_graphs(rng):
        want = reference_flags(g)
        seed = rng.getrandbits(32)
        v = generic_rank(g, 2, seed=seed)
        assert v.rank_lb == want["rank"], g
        assert v.independent == want["independent"], g
        assert v.rigid == want["rigid"], g
        circ, cv = is_circuit(g, 2, seed=seed)
        assert circ == want["circuit"], g
        assert cv.rank_lb == want["rank"], g
        if circ:
            assert cv.flexible_circuit == want["flexible_circuit"], g
            circuits += 1
        if not want["independent"] and g.m <= 2 * g.n - 3:
            dependent_within_bound += 1
    # both elimination schedules of is_circuit ran: |E| above the count
    # bound (null space at the first point) and within it (at the second)
    assert circuits >= 40 and dependent_within_bound >= 10
