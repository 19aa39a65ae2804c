"""Exact rank computation: packed-row elimination over a prime field, and
fraction-free integer elimination for the rational cross-check path.

Matrices come in as sequences of rows, each a sequence of Python ints; they
are read and never changed. Over F_p each row is packed into one int, here
and nowhere else, with one lane of W = 64*w bits per column, in reverse
column order: of N columns, column c holds bits W*(N-1-c) .. W*(N-c) - 1,
so the column being eliminated is the highest lane still in use. Adding a
multiple of one row to another is then one big-int multiply-add over all
its columns, and `_eliminate` explains why no lane ever carries into the
next. The columns fall into blocks: a vertex's d columns in a rigidity
matrix at a point, one column in any other matrix. Each row also carries a
mask whose byte b is nonzero when block b may be nonzero in the row, so a
block's pivot searches and updates read only the rows that can hold an
entry there.

A packed lane starts below 2p and stands for its residue. Rows of any other
matrix are reduced mod p cell by cell (`_pack`). The rows of a rigidity
matrix at a point, `_PointRows`, are packed straight from the coordinates
(`_pack_point`), with no cell list and no per-cell reduction; a lane there
may hold p, so its mask byte reads "may be nonzero", not "is nonzero".
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Sequence
from itertools import chain

# Largest 62-bit prime. At the scales in scope (d*|V| <= ~150) a single
# random evaluation misses the generic rank with probability < 2^-54, and
# at the CLI's limit of 1,000 coordinates (d*|V| <= 1000) < 2^-52.
DEFAULT_PRIME = 2**62 - 57

# rows are packed through array("Q"), one 64-bit word per item
if array("Q").itemsize != 8:
    raise ImportError("rigikit.linalg needs array('Q') items of 8 bytes")


def rank_mod_p(rows: Sequence[Sequence[int]], p: int = DEFAULT_PRIME) -> int:
    """Rank of the matrix over F_p.

    Entries may be any ints, negative or >= p included: each is reduced
    mod p here. The rows are only read, never changed.
    """
    return _eliminate(rows, p)


def rank_and_left_null_mod_p(
    rows: Sequence[Sequence[int]], p: int = DEFAULT_PRIME
) -> tuple[int, list[list[int]]]:
    """Rank plus a basis of the left null space over F_p.

    Entries may be any ints, negative or >= p included: each is reduced
    mod p here. The rows are only read, never changed.

    The basis is what eliminating the matrix augmented with an identity
    block leaves in the augmented part of the rows whose original part
    vanishes. That part is not carried through the elimination. Rows are
    never scaled, so a row's augmented part is its own unit vector plus, for
    each pivot row added to it with multiplier f, f times that pivot row's
    augmented part. The elimination logs the multipliers, and each null
    row's augmented part is expanded from the log, latest pivot first.
    """
    m = len(rows)
    log: list[tuple[int, list[tuple[int, int]]]] = [(i, []) for i in range(m)]
    rank = _eliminate(rows, p, log)
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
    rows: Sequence[Sequence[int]], p: int,
    log: list[tuple[int, list[tuple[int, int]]]] | None = None,
) -> int:
    """Row echelon over F_p of packed copies of `rows`; returns the rank.

    Pivots are those of plain elimination: at column c, the first remaining
    row whose entry there is nonzero mod p. Each row below with a nonzero
    entry e takes f = -e/pivot mod p times the pivot row, as one big-int
    multiply-add that is not reduced, and ORs the pivot's mask into its
    own. A row thus takes a pivot's mask only inside a block where it is
    already flagged, and a mask flags whole blocks, so the rows flagged in
    a column are those flagged in its block at the block's first column.
    They are listed there once, in order, and every pivot search and update
    in the block walks only that list. Each pivot leaves the remaining rows
    and takes one entry with it: the entry of the row at `rank` if that row
    is listed, since it moves to the pivot's slot, which keeps its entry;
    otherwise the pivot's own.

    Lanes run in reverse column order, so the lanes above column c's are
    the columns before it. In every remaining row each of those is 0 mod
    p: eliminated there, or zero there when no pivot was found, and pivot
    rows add multiples of lanes that are 0 mod p. So the row shifted down
    to c's lane is c's entry plus a multiple of p, and one shift and one
    `% p` read the entry. At a block's first column the listed rows drop
    the lanes above the block, which no later column reads.

    Only the pivot row is reduced, all its lanes at once by one Barrett
    step (Barrett, CRYPTO '86):

        x - (((x * mu) >> t) & qmask) * p,    mu = 2^t // p,

    where qmask keeps the low W - t bits of every lane. For a lane below
    2^t the quotient estimate lies in (x/p - 2, x/p], so the lane ends in
    [0, 2p), inside the 3p that t allows for.

    Why no lane carries: a row starts with lanes below 2p (`_pack` and
    `_pack_point`), and each pivot row it takes, f < p times lanes below 2p,
    adds less than 2p^2 per lane, at most m - 1 times. So every lane stays
    below 2p + 2p^2(m - 1) < 3p^2(m + 1) < 2^t with
    t = (3*p*p*(m + 1)).bit_length().
    A lane's product with mu is then below 2^(t + mu.bit_length()) <= 2^W,
    so `x * mu` keeps each lane's product inside the lane, and after the
    shift by t qmask drops the bits that came down from the lane above. The
    quotient times p is at most the lane, so the subtraction borrows
    nothing either. At p = 32749 a lane is one 64-bit word for up to ~170
    rows; DEFAULT_PRIME takes 4 words.

    With `log`, one entry per row that moves with it, each update of a row
    by the pivot row at rank position j appends (j, multiplier) to the
    entry's list.
    """
    m = len(rows)
    if m == 0:
        return 0
    point = isinstance(rows, _PointRows)
    ncols = rows.d * len(rows.coords) if point else len(rows[0])
    t = (3 * p * p * (m + 1)).bit_length()
    mu = (1 << t) // p
    words = -(-(t + mu.bit_length()) // 64)
    width = 64 * words
    qmask = int.from_bytes((b"\1" + bytes(8 * words - 1)) * ncols, "little")
    qmask *= (1 << width - t) - 1
    packed, masks = _pack_point(rows, p, words) if point else _pack(rows, p, words)
    size = rows.d if point else 1  # columns per block
    rank = 0
    for first in range(0, ncols, size):
        flag = 0xFF << 8 * (first // size)
        live = [i for i in range(rank, m) if masks[i] & flag]
        keep = (1 << width * (ncols - first)) - 1
        for i in live:
            packed[i] &= keep
        for c in range(first, first + size):
            shift = width * (ncols - 1 - c)
            for k, piv in enumerate(live):
                entry = (packed[piv] >> shift) % p
                if entry:
                    break
            else:
                continue
            # the listed rows before piv are zero at c, and so is row rank
            # if listed: it takes piv's slot and its entry in `live`
            del live[0 if live[0] == rank else k]
            packed[rank], packed[piv] = packed[piv], packed[rank]
            masks[rank], masks[piv] = masks[piv], masks[rank]
            if log is not None:
                log[rank], log[piv] = log[piv], log[rank]
            x = packed[rank]
            x -= (x * mu >> t & qmask) * p
            packed[rank] = x
            pivot_mask = masks[rank]
            neg_inv = p - pow(entry, -1, p)
            for i in live[k:]:
                f = (packed[i] >> shift) * neg_inv % p
                if f:
                    packed[i] += f * x
                    masks[i] |= pivot_mask
                    if log is not None:
                        log[i][1].append((rank, f))
            rank += 1
        if rank == m:
            break
    return rank


def _pack(
    rows: Sequence[Sequence[int]], p: int, words: int
) -> tuple[list[int], list[int]]:
    """Each row reduced mod p as one int with a lane of `words` 64-bit words
    per column, in reverse column order, and its mask, whose byte c is
    nonzero when column c is: a block is one column.

    The whole matrix goes through one bytes object, each row's cells
    reversed and each lane's bytes in little-endian order. A reduced cell
    fits in its lane's first ceil(bits(p) / 8) bytes, so the OR of those
    bytes, one strided slice each, gives every cell's mask byte at once; a
    row's mask bytes read big-endian put column c's in byte c.
    """
    m, ncols = len(rows), len(rows[0])
    if any(len(row) != ncols for row in rows):
        raise ValueError("matrix rows differ in length")
    data = _lanes([v % p for v in chain.from_iterable(map(reversed, rows))], p, words)
    lane_bytes = 8 * words
    flags = 0
    for k in range((p.bit_length() + 7) // 8):
        flags |= int.from_bytes(data[k::lane_bytes], "little")
    flag_bytes = flags.to_bytes(m * ncols, "little")
    size = lane_bytes * ncols
    packed = [int.from_bytes(data[i * size:(i + 1) * size], "little") for i in range(m)]
    masks = [int.from_bytes(flag_bytes[i * ncols:(i + 1) * ncols], "big")
             for i in range(m)]
    return packed, masks


def _lanes(cells: list[int], p: int, words: int) -> bytes:
    """Cells in [0, p), each as a lane of `words` little-endian 64-bit words."""
    lane_bytes = 8 * words
    if p >> 64:  # a cell may not fit one array word
        return b"".join(v.to_bytes(lane_bytes, "little") for v in cells)
    a = array("Q", bytes(lane_bytes * len(cells)))
    a[::words] = array("Q", cells)
    if sys.byteorder == "big":
        a.byteswap()
    return a.tobytes()


class _PointRows(Sequence):
    """The rows of the rigidity matrix R(G,p) at a point: for the edge
    (u, v), x_u - x_v in vertex block u (columns d*u .. d*u + d - 1), its
    negation in block v and zeros elsewhere, x_w being the d coordinates of
    vertex w. A row is built only when read; `_eliminate` packs the rows
    straight from the coordinates instead (`_pack_point`)."""

    def __init__(
        self, d: int, edges: Sequence[tuple[int, int]], coords: Sequence[Sequence[int]]
    ) -> None:
        self.d, self.edges, self.coords = d, edges, coords

    def __len__(self) -> int:
        return len(self.edges)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        u, v = self.edges[i]
        d = self.d
        row = [0] * (d * len(self.coords))
        for k, (a, b) in enumerate(zip(self.coords[u], self.coords[v])):
            row[d * u + k] = a - b
            row[d * v + k] = b - a
        return tuple(row)


def _pack_point(rows: _PointRows, p: int, words: int) -> tuple[list[int], list[int]]:
    """`_pack` for the rows of R(G,p), from the coordinates alone.

    Vertex w's columns d*w .. d*w + d - 1 sit in lanes d*(n-1-w) ..
    d*(n-w) - 1, in reverse order like every column. B_w holds w's
    coordinates mod p, one per lane, last coordinate lowest, and P holds p
    in every lane of a block. The edge (u, v) puts D = B_u - B_v + P in u's
    lanes and 2P - D in v's, whose lanes are x_u - x_v + p and x_v - x_u + p:
    both in [1, 2p), so neither subtraction borrows across lanes. Each mask
    flags blocks u and v (bytes u and v) whole, as "may be nonzero", since
    a lane holds p where two coordinates agree.
    """
    d = rows.d
    n = len(rows.coords)
    lane_bytes = 8 * words
    size = lane_bytes * d
    data = _lanes([x % p for x in chain.from_iterable(map(reversed, rows.coords))],
                  p, words)
    blocks = [int.from_bytes(data[i:i + size], "little") for i in range(0, len(data), size)]
    P = p * int.from_bytes((b"\1" + bytes(lane_bytes - 1)) * d, "little")
    P2 = 2 * P
    step = 8 * size  # bits per vertex block
    packed = []
    for u, v in rows.edges:
        diff = blocks[u] - blocks[v] + P
        packed.append((diff << step * (n - 1 - u)) + (P2 - diff << step * (n - 1 - v)))
    masks = [(1 << 8 * u) + (1 << 8 * v) for u, v in rows.edges]
    return packed, masks


def rank_exact_int(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank over the rationals of an integer matrix (Bareiss
    fraction-free elimination; entries stay integral throughout). Each
    update rebinds a row of the working list, so `rows` is never changed."""
    A = list(rows)
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
