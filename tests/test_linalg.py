import random
from fractions import Fraction

import sympy

from rigikit.linalg import (
    DEFAULT_PRIME,
    rank_and_left_null_mod_p,
    rank_exact_int,
    rank_mod_p,
)


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
        B = [[x % DEFAULT_PRIME for x in r] for r in A]
        assert rank_mod_p(B) == fraction_rank(A)


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
    for p in (5, 101, DEFAULT_PRIME):
        for _ in range(80):
            m, n = rng.randrange(1, 12), rng.randrange(1, 9)
            A = random_matrix(rng, m, n, lowrank=rng.random() < 0.7)
            B = [[x % p for x in r] for r in A]
            assert rank_and_left_null_mod_p(B, p) == augmented_rank_and_left_null(B, p)
