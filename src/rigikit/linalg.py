"""Exact rank computation: dense elimination over a prime field, and
fraction-free integer elimination for the rational cross-check path.

Matrices are lists of row lists of Python ints; sizes in scope stay below
roughly 100 x 200, so dense elimination is the right tool.
"""

from __future__ import annotations

# Largest 62-bit prime. At the scales in scope (d*|V| <= ~150) a single
# random evaluation misses the generic rank with probability < 2^-54.
DEFAULT_PRIME = 2**62 - 57


def rank_mod_p(rows: list[list[int]], p: int = DEFAULT_PRIME) -> int:
    """Rank of the matrix over F_p. Rows are consumed as copies."""
    return _eliminate([r[:] for r in rows], p)


def rank_and_left_null_mod_p(
    rows: list[list[int]], p: int = DEFAULT_PRIME
) -> tuple[int, list[list[int]]]:
    """Rank plus a basis of the left null space over F_p.

    Eliminates the matrix augmented with an identity block; rows whose
    original part vanishes have augmented parts spanning {x : x A = 0}.
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    aug = []
    for i, r in enumerate(rows):
        row = r[:] + [0] * m
        row[ncols + i] = 1
        aug.append(row)
    rank = _eliminate(aug, p, active_cols=ncols)
    null = [row[ncols:] for row in aug[rank:]]
    return rank, null


def _eliminate(rows: list[list[int]], p: int, active_cols: int | None = None) -> int:
    """In-place row echelon over F_p; returns rank. Pivots only in the first
    active_cols columns (defaults to all)."""
    m = len(rows)
    if m == 0:
        return 0
    ncols = len(rows[0]) if active_cols is None else active_cols
    rank = 0
    for c in range(ncols):
        piv = -1
        for i in range(rank, m):
            if rows[i][c]:
                piv = i
                break
        if piv < 0:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        # the pivot row stays unscaled: each row below takes the multiple
        # -f/pivot of it, which leaves the rows below exactly as scaling first
        tail = rows[rank][c:]
        neg_inv = p - pow(tail[0], -1, p)
        for i in range(rank + 1, m):
            ri = rows[i]
            f = ri[c]
            if f:
                f = f * neg_inv % p
                rows[i] = ri[:c] + [(a + f * b) % p for a, b in zip(ri[c:], tail)]
        rank += 1
        if rank == m:
            break
    return rank


def rank_exact_int(rows: list[list[int]]) -> int:
    """Exact rank over the rationals of an integer matrix (Bareiss
    fraction-free elimination; entries stay integral throughout)."""
    A = [r[:] for r in rows]
    m = len(A)
    if m == 0:
        return 0
    ncols = len(A[0])
    rank = 0
    prev = 1
    for c in range(ncols):
        piv = -1
        for i in range(rank, m):
            if A[i][c]:
                piv = i
                break
        if piv < 0:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        prow = A[rank]
        pc = prow[c]
        for i in range(rank + 1, m):
            f = A[i][c]
            Ai = A[i]
            A[i] = [(pc * a - f * b) // prev for a, b in zip(Ai, prow)]
        prev = pc
        rank += 1
        if rank == m:
            break
    return rank
