"""Verdicts settled at the small prime against an oracle that shares no code
with the library.

The rigidity matrix is assembled here from the edge list at a random integer
point, and sympy takes its exact rank over Q. That rank bounds the generic
rank from below. A verdict settled at the small prime met the count bound,
which bounds the generic rank from above, so its rank is exact and its
independent and rigid flags must match what the sympy rank says.
"""

import itertools
import math
import random

from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from rigikit import Graph, generic_rank, is_circuit
from rigikit.rigidity import _SMALL_PRIME


def exact_rank(n, d, edges, rng):
    point = [[rng.randrange(-2**40, 2**40) for _ in range(d)] for _ in range(n)]
    rows = []
    for u, v in edges:
        row = [0] * (d * n)
        for k in range(d):
            row[d * u + k] = point[u][k] - point[v][k]
            row[d * v + k] = point[v][k] - point[u][k]
        rows.append(row)
    return DomainMatrix.from_list(rows, ZZ).rank() if rows else 0


def test_small_prime_verdicts_match_sympy_rank():
    rng = random.Random(0x5E7)
    settled = 0
    for _ in range(240):
        n = rng.randrange(3, 9)
        d = rng.randrange(2, 5)
        density = rng.choice((0.3, 0.5, 0.7, 0.9))
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
        g = Graph(n, tuple(edges))
        r = exact_rank(n, d, g.edges, rng)
        rigid_rank = d * n - math.comb(d + 1, 2) if n >= d + 2 else math.comb(n, 2)
        seed = rng.getrandbits(32)
        for v in (generic_rank(g, d, seed=seed), is_circuit(g, d, seed=seed)[1]):
            if v.field_primes != (_SMALL_PRIME,):
                continue
            settled += 1
            assert v.rank_lb == r, (g.to_graph6(), d)
            assert v.independent is (r == g.m), (g.to_graph6(), d)
            assert v.rigid is (r == rigid_rank), (g.to_graph6(), d)
    assert settled >= 400  # of 480 verdicts on 240 graphs
