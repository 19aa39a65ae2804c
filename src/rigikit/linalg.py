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

    The basis is what eliminating the matrix augmented with an identity
    block leaves in the augmented part of the rows whose original part
    vanishes. That part is not carried through the elimination. Rows are
    never scaled, so a row's augmented part is its own unit vector plus, for
    each pivot row added to it with multiplier f, f times that pivot row's
    augmented part. The elimination logs the multipliers, and each null
    row's augmented part is expanded from the log, latest pivot first.
    """
    m = len(rows)
    work = [r[:] for r in rows]
    log: list[tuple[int, list[tuple[int, int]]]] = [(i, []) for i in range(m)]
    rank = _eliminate(work, p, log)
    null = []
    for i in range(rank, m):
        origin, added = log[i]
        x = [0] * m
        x[origin] = 1
        w = [0] * rank  # multiples of the pivot rows still to expand
        for j, f in added:
            w[j] = f
        for j in range(rank - 1, -1, -1):
            if w[j]:
                pivot_origin, pivot_added = log[j]
                x[pivot_origin] = w[j]
                for k, f in pivot_added:
                    w[k] = (w[k] + w[j] * f) % p
        null.append(x)
    return rank, null


def _eliminate(
    rows: list[list[int]], p: int,
    log: list[tuple[int, list[tuple[int, int]]]] | None = None,
) -> int:
    """In-place row echelon over F_p; returns rank.

    With `log`, one entry per row that moves with it, each update of a row
    by the pivot row at rank position j appends (j, multiplier) to the
    entry's list.
    """
    m = len(rows)
    if m == 0:
        return 0
    ncols = len(rows[0])
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
        if log is not None:
            log[rank], log[piv] = log[piv], log[rank]
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
                if log is not None:
                    log[i][1].append((rank, f))
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
