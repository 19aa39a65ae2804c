import itertools
import random
from fractions import Fraction

import pytest
import sympy

from rigikit import linalg
from rigikit.constructions import build_glued_cliques, cone
from rigikit.graph import Graph, complete_bipartite, complete_graph
from rigikit.linalg import (
    DEFAULT_PRIME,
    rank_and_left_null_mod_p,
    rank_exact_int,
    rank_mod_p,
)
from rigikit.rigidity import random_realization, rigidity_matrix

# 2 and 3 make zero pivots and row swaps common; 32749 is the verdicts'
# first prime; DEFAULT_PRIME needs lanes of 4 words
PRIMES = (2, 3, 5, 101, 32749, DEFAULT_PRIME)


def fraction_rank(rows):
    """Plain Gaussian elimination over Q: the independent oracle."""
    A = [[Fraction(x) for x in r] for r in rows]
    m = len(A)
    if m == 0:
        return 0
    ncols = len(A[0])
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, m) if A[i][c]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        pr = A[rank]
        for i in range(rank + 1, m):
            if A[i][c]:
                f = A[i][c] / pr[c]
                A[i] = [a - f * b for a, b in zip(A[i], pr)]
        rank += 1
        if rank == m:
            break
    return rank


def random_matrix(rng, m, n, lowrank=False):
    if lowrank and min(m, n) > 1:
        r = rng.randrange(1, min(m, n))
        left = [[rng.randrange(-5, 6) for _ in range(r)] for _ in range(m)]
        right = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(r)]
        return [[sum(left[i][k] * right[k][j] for k in range(r)) for j in range(n)]
                for i in range(m)]
    return [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]


def test_default_prime_is_prime():
    assert DEFAULT_PRIME.bit_length() == 62
    assert sympy.isprime(DEFAULT_PRIME)


def test_bareiss_matches_fraction_oracle():
    rng = random.Random(11)
    for _ in range(60):
        m, n = rng.randrange(1, 8), rng.randrange(1, 8)
        A = random_matrix(rng, m, n, lowrank=rng.random() < 0.5)
        assert rank_exact_int(A) == fraction_rank(A)


def test_modular_matches_fraction_oracle():
    # entries are small, so rank mod a 62-bit prime equals the rational rank
    rng = random.Random(12)
    for _ in range(60):
        m, n = rng.randrange(1, 8), rng.randrange(1, 8)
        A = random_matrix(rng, m, n, lowrank=rng.random() < 0.5)
        assert rank_mod_p(A) == fraction_rank(A)
    # a matrix of rank r over every field: up to 160 rows, which moves the
    # lane bound, taller than wide, and with all-zero columns
    for m, n, r in ((1, 1, 1), (7, 3, 3), (40, 12, 5), (12, 40, 12),
                    (160, 10, 4), (160, 40, 40), (30, 30, 0)):
        A = rank_r_matrix(rng, m, n, r)
        assert fraction_rank(A) == r
        for p in PRIMES:
            assert rank_mod_p(A, p) == r, (p, m, n, r)


def rank_r_matrix(rng, m, n, r):
    """An integer m x n matrix of rank r over Q and over every F_p: the
    identity of rank r moved by unimodular row and column operations, with
    two all-zero columns spliced in."""
    A = [[int(i == j < r) for j in range(n)] for i in range(m)]
    for _ in range(2 * (m + n)):
        i, j, k = rng.randrange(m), rng.randrange(m), rng.choice((-2, -1, 1, 2))
        if i != j:
            A[j] = [a + k * b for a, b in zip(A[j], A[i])]
        i, j, k = rng.randrange(n), rng.randrange(n), rng.choice((-2, -1, 1, 2))
        if i != j:
            for row in A:
                row[j] += k * row[i]
    rng.shuffle(A)
    at = rng.randrange(n + 1)
    for row in A:
        row.insert(at, 0)
        row.insert(0, 0)
    return A


def test_entries_are_reduced_and_rows_left_unchanged():
    # an unreduced entry that is 0 mod p is no pivot
    assert rank_mod_p([[5, 1]], 5) == 1
    assert rank_and_left_null_mod_p([[5, 1], [1, 7]], 5) == (2, [])
    rng = random.Random(16)
    for p in (*PRIMES, 2**64 - 59, 2**89 - 1):
        for _ in range(10):
            m, n = rng.randrange(1, 12), rng.randrange(1, 9)
            A = [[rng.randrange(-3 * p, 3 * p) for _ in range(n)] for _ in range(m)]
            if rng.random() < 0.5:
                A.append([x - 2 * y for x, y in zip(A[0], A[-1])])
            before = [r[:] for r in A]
            reduced = [[x % p for x in r] for r in A]
            assert rank_mod_p(A, p) == rank_mod_p(reduced, p)
            assert rank_and_left_null_mod_p(A, p) == rank_and_left_null_mod_p(reduced, p)
            assert rank_and_left_null_mod_p(reduced, p) == augmented_rank_and_left_null(reduced, p)
            rows = tuple(map(tuple, A))  # any sequences of rows read the same
            assert rank_mod_p(rows, p) == rank_mod_p(A, p)
            assert rank_and_left_null_mod_p(rows, p) == rank_and_left_null_mod_p(A, p)
            assert rank_exact_int(rows) == rank_exact_int(A)
            assert A == before


def test_sympy_cross_check():
    rng = random.Random(13)
    for _ in range(10):
        A = random_matrix(rng, 6, 7, lowrank=True)
        assert rank_exact_int(A) == sympy.Matrix(A).rank()


def test_left_null_space():
    rng = random.Random(14)
    for _ in range(40):
        m, n = rng.randrange(1, 8), rng.randrange(1, 8)
        A = random_matrix(rng, m, n, lowrank=rng.random() < 0.7)
        B = [[x % DEFAULT_PRIME for x in r] for r in A]
        rank, null = rank_and_left_null_mod_p(B)
        assert rank == rank_mod_p(B)
        assert len(null) == m - rank
        for vec in null:
            assert any(vec)  # basis vectors are nonzero
            for j in range(n):
                s = sum(vec[i] * B[i][j] for i in range(m)) % DEFAULT_PRIME
                assert s == 0


def test_empty_matrix():
    assert rank_mod_p([]) == 0
    assert rank_exact_int([]) == 0
    assert rank_and_left_null_mod_p([[], []]) == (0, [[1, 0], [0, 1]])


def test_ragged_rows_are_rejected():
    # packing flattens the rows, so unequal lengths would shift columns
    with pytest.raises(ValueError):
        rank_mod_p([[1, 2], [3], [4, 5, 6]])


def augmented_rank_and_left_null(rows, p):
    """Reference: eliminate [A | I] in full, pivoting only in A's columns;
    rows whose A part vanishes carry a left null space basis."""
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    aug = [r[:] + [int(i == j) for j in range(m)] for i, r in enumerate(rows)]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, m) if aug[i][c]), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        pr = aug[rank]
        neg_inv = p - pow(pr[c], -1, p)
        for i in range(rank + 1, m):
            f = aug[i][c] * neg_inv % p
            aug[i] = [(a + f * b) % p for a, b in zip(aug[i], pr)]
        rank += 1
    return rank, [row[ncols:] for row in aug[rank:]]


def test_left_null_space_equals_augmented_elimination():
    # a small prime makes zero pivots, row swaps and deep dependencies common
    rng = random.Random(15)
    for p in (5, 101, DEFAULT_PRIME, 2, 3, 32749):
        for _ in range(80):
            m, n = rng.randrange(1, 12), rng.randrange(1, 9)
            A = random_matrix(rng, m, n, lowrank=rng.random() < 0.7)
            B = [[x % p for x in r] for r in A]
            assert rank_and_left_null_mod_p(B, p) == augmented_rank_and_left_null(B, p)


def test_structured_shapes_equal_augmented_elimination():
    rng = random.Random(17)
    for p in PRIMES:
        # tall, wide, all-zero columns, up to 160 rows, and the worst case
        # for lane growth: tall and low-rank with every entry p - 1
        shapes = [rank_r_matrix(rng, 160, 12, 6), rank_r_matrix(rng, 60, 20, 20),
                  rank_r_matrix(rng, 10, 50, 9), [[p - 1] * 30 for _ in range(160)]]
        for A in shapes:
            B = [[x % p for x in r] for r in A]
            rank, null = rank_and_left_null_mod_p(B, p)
            assert (rank, null) == augmented_rank_and_left_null(B, p)
            for vec in null:
                assert not any(sum(v * r[j] for v, r in zip(vec, B)) % p
                               for j in range(len(B[0])))


def list_eliminate(rows, p, log=None):
    """Reference: the elimination over lists of cells that the packed rows
    replaced, with the same pivots, multipliers and log."""
    rows = [[x % p for x in r] for r in rows]
    m = len(rows)
    if m == 0:
        return 0
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, m) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        if log is not None:
            log[rank], log[piv] = log[piv], log[rank]
        tail = rows[rank][c:]
        neg_inv = p - pow(tail[0], -1, p)
        for i in range(rank + 1, m):
            ri = rows[i]
            f = ri[c] * neg_inv % p
            if f:
                rows[i] = ri[:c] + [(a + f * b) % p for a, b in zip(ri[c:], tail)]
                if log is not None:
                    log[i][1].append((rank, f))
        rank += 1
        if rank == m:
            break
    return rank


def _reference_graphs():
    graphs = {}
    g = complete_bipartite(6, 6)
    for d in range(4, 8):  # the cone ladder over K_{6,6}
        graphs[f"cone{d - 4}-K66"] = g, d
        g = cone(g)
    for d in range(3, 8):
        graphs[f"B{d}{d - 1}"] = build_glued_cliques(d, d - 1).graph, d
    graphs["K55"] = complete_bipartite(5, 5), 3
    return graphs


REFERENCE_GRAPHS = _reference_graphs()


def _wide_graphs():
    """Point rows beyond the reference graphs: the first 169 and 170 edges
    of K_19, where a lane at 32749 grows from one word to two, and random
    graphs up to n = 16 and d = 7, whose points at p = 2 and 5 make
    flagged-but-zero rows and a listed row at `rank` common."""
    k19 = complete_graph(19).edges
    graphs = {f"K19-{m}": (Graph(19, k19[:m]), 3, (32749,)) for m in (169, 170)}
    rng = random.Random(19)
    for n, d in ((16, 7), (16, 5), (14, 6), (12, 7), (16, 3)):
        edges = tuple(e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6)
        graphs[f"G{n}-d{d}"] = Graph(n, edges), d, (2, 5)
    return graphs


WIDE_GRAPHS = _wide_graphs()


def eliminations(rows, p):
    """Rank, multiplier log, left null space and plain rank of `rows`."""
    log = [(i, []) for i in range(len(rows))]
    rank = linalg._eliminate(rows, p, log)
    return rank, log, rank_and_left_null_mod_p(rows, p), rank_mod_p(rows, p)


# 2 and 5 make coincident coordinates, lanes that hold p, common; 2^89 - 1
# packs each cell through bytes, not array("Q")
@pytest.mark.parametrize("name, p", [
    *itertools.product(REFERENCE_GRAPHS, (2, 5, 101, 32749, DEFAULT_PRIME, 2**89 - 1)),
    *((name, p) for name, (_, _, primes) in WIDE_GRAPHS.items() for p in primes),
])
def test_rigidity_matrices_match_list_elimination(monkeypatch, name, p):
    # the matrix as `rigidity_matrix` builds it, and as the oracle passes it:
    # rows packed straight from the point; the null space is also that of
    # the augmented elimination
    g, d = REFERENCE_GRAPHS[name] if name in REFERENCE_GRAPHS else WIDE_GRAPHS[name][:2]
    r = random_realization(g, d, 7, field=p)
    rows = rigidity_matrix(g, r).rows
    got = [eliminations(rows, p), eliminations(linalg._PointRows(d, g.edges, r.coords), p)]
    monkeypatch.setattr(linalg, "_eliminate", list_eliminate)
    assert got == [eliminations(rows, p)] * 2
    reduced = [[x % p for x in row] for row in rows]
    assert got[0][2] == augmented_rank_and_left_null(reduced, p)


def test_point_rows_equal_dense_rows():
    # edge cases of the rows packed from a point: no edges, n <= d + 1,
    # coordinates outside [0, p), and coincident coordinates, whose lanes
    # hold p under a "may be nonzero" mask; the rows read back as R(G,p)
    rng = random.Random(18)
    cases = [(0, 2, ()), (1, 3, ()), (2, 3, ((0, 1),))]
    for _ in range(60):
        n, d = rng.randrange(2, 10), rng.randrange(1, 5)
        cases.append((n, d, tuple(e for e in itertools.combinations(range(n), 2)
                                  if rng.random() < rng.random())))
    for p in (*PRIMES, 2**89 - 1):
        for n, d, edges in cases:
            span = rng.choice((1, 2, 3, p, 2 * p))
            coords = [[rng.randrange(-span, span) for _ in range(d)] for _ in range(n)]
            point = linalg._PointRows(d, edges, coords)
            dense = [[0] * (d * n) for _ in edges]
            for row, (u, v) in zip(dense, edges):
                row[d * u:d * u + d] = [a - b for a, b in zip(coords[u], coords[v])]
                row[d * v:d * v + d] = [b - a for a, b in zip(coords[u], coords[v])]
            assert list(point) == list(map(tuple, dense))
            assert eliminations(point, p) == eliminations(dense, p), (p, n, d, edges)
