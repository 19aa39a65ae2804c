"""Canonical labeling by partition refinement with full backtracking.

The canonical code of a graph is the lexicographically least adjacency bit
string, read in graph6 bit order, over the leaves of a search tree. That bit
order is defined in `graph.py` only: `graph6_pack` packs each leaf's bits and
`graph6_bytes` prints the least as graph6. Each node of the tree refines an
ordered partition to an equitable one, then branches on every vertex of its
first non-singleton cell. Refinement and branching are
isomorphism-equivariant, and a branch is pruned only when a known
automorphism maps a searched branch onto it. So the minimum over the searched
leaves is a complete invariant: two graphs receive equal codes exactly when
they are isomorphic.

Four mechanisms cut the work, and none changes a code:

* Fresh-cell refinement. A refinement round keys each vertex by its counts
  into the fresh cells only, packed into one int (radix n+1, the first fresh
  cell most significant), and splits each cell by that key in ascending
  order. The fresh cells are the pieces of each cell split in the previous
  round except the last piece: the degree cells but the last at the start,
  and the individualized vertex after branching. A cell already agrees on its
  count into every cell that did not split, and on its count into a split
  cell, so its count into the last piece follows from the counts into the
  pieces before it. The packed key therefore orders every cell exactly as
  the tuple of counts into all cells does, and each round yields the same
  ordered partition as re-keying every cell against every cell.
* Twin seeding. Twins u, v (N(u) - {v} == N(v) - {u}) are swapped by the
  transposition (u v), which joins the generators before the search starts,
  so sibling branches over twins are pruned unsearched.
* Per-node orbit cache. Each node keeps one union-find of the orbits of the
  known generators that fix its path, extended only by the generators found
  since its previous child was tried.
* Return on an automorphism. A leaf whose code equals a stored leaf's gives
  an automorphism that maps the stored leaf's branch, at the node where the
  two paths part, onto the new leaf's branch, so the search goes back to
  that node's next child.

Pruning changes which of the least-code leaves is reached first, so the
returned permutation may differ by an automorphism; the generators found
still generate the whole automorphism group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .graph import Graph, _bits, graph6_bytes, graph6_pack


@dataclass(frozen=True)
class CanonicalLabeling:
    permutation: tuple[int, ...]  # original vertex -> canonical position
    code: bytes                   # graph6 of the relabeled graph


def canonical_labeling(g: Graph) -> CanonicalLabeling:
    code_int, perm, _ = canon_raw(g.adj, g.n)
    return CanonicalLabeling(permutation=perm, code=graph6_bytes(g.n, code_int))


def canonical_code(g: Graph) -> bytes:
    return canonical_labeling(g).code


def canonical_form(g: Graph) -> Graph:
    """The canonically relabeled copy of g."""
    _, perm, _ = canon_raw(g.adj, g.n)
    return g.relabel(perm)


def automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """Generators of the automorphism group discovered during canonization."""
    _, _, gens = canon_raw(g.adj, g.n)
    return gens


def canon_raw(
    adj: Sequence[int],
    n: int,
) -> tuple[int, tuple[int, ...], list[tuple[int, ...]]]:
    """Canonize a bitmask adjacency.

    Returns (code, perm, gens): `code` packs the canonical adjacency bits
    (graph6 order, most significant bit first) into one int, `perm` maps each
    original vertex to its canonical position, and `gens` generates the
    automorphism group (vertex -> vertex tuples).
    """
    if n == 0:
        return 0, (), []
    nbrs = [_bits(adj[v]) for v in range(n)]
    radix = n + 1

    # An ordered partition is `lab`, the vertices in cell order, with
    # `cellof[v]` the start position of v's cell and `cend[s]` the end of the
    # cell starting at s. Splitting a cell leaves every other start in place.
    lab = list(range(n))
    cellof = [0] * n
    cend = [0] * n
    cend[0] = n
    fresh: list[int] = []
    _split(lab, cellof, cend, 0, [len(nb) for nb in nbrs], fresh)

    gens = _twin_transpositions(adj, n)
    best_code: Optional[int] = None
    best_order: list[int] = []
    # a few stored leaves (order, path), so ties against non-best branches
    # still yield gens
    seen_leaves: dict[int, tuple[list[int], list[int]]] = {}
    path: list[int] = []
    # after an automorphism is found, the depth of the node to go on from
    resume_depth: Optional[int] = None

    def refine(lab: list[int], cellof: list[int], cend: list[int],
               fresh: list[int]) -> None:
        while fresh:
            key = [0] * n
            touched: list[int] = []
            weight = radix ** (len(fresh) - 1)
            for s in fresh:
                for v in lab[s:cend[s]]:
                    for x in nbrs[v]:
                        if not key[x]:
                            touched.append(x)
                        key[x] += weight
                weight //= radix
            fresh = []
            for s in sorted({cellof[x] for x in touched}):
                if cend[s] - s > 1:
                    _split(lab, cellof, cend, s, key, fresh)

    def record_leaf(order: list[int]) -> None:
        nonlocal best_code, best_order, resume_depth
        code = graph6_pack(nbrs, order)
        if best_code is None or code < best_code:
            best_code = code
            best_order = order[:]
        prev = seen_leaves.get(code)
        if prev is None:
            if len(seen_leaves) < 64:
                seen_leaves[code] = (order[:], path[:])
            return
        prev_order, prev_path = prev
        aut = [0] * n
        for a, b in zip(prev_order, order):
            aut[a] = b
        t = tuple(aut)
        if t not in gens:
            gens.append(t)
        # t fixes the paths' common prefix and maps the earlier leaf's
        # branch at the node where they part onto this leaf's branch, so
        # the rest of this branch is an image of one already searched
        resume_depth = next(k for k, (a, b) in enumerate(zip(prev_path, path)) if a != b)

    def descend(lab: list[int], cellof: list[int], cend: list[int]) -> None:
        nonlocal resume_depth
        s = 0
        while s < n and cend[s] == s + 1:
            s += 1
        if s == n:
            record_leaf(lab)
            return
        e = cend[s]
        cell = lab[s:e]
        tried: list[int] = []
        # orbits of the generators that fix `path`, from gens[:checked]
        parent = list(range(n))
        checked = 0

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for v in cell:
            if tried:
                for g in gens[checked:]:
                    if all(g[x] == x for x in path):
                        for x, y in enumerate(g):
                            if x != y:
                                rx, ry = find(x), find(y)
                                if rx != ry:
                                    parent[rx] = ry
                checked = len(gens)
                rv = find(v)
                if any(find(u) == rv for u in tried):
                    continue
            tried.append(v)
            path.append(v)
            rest = [u for u in cell if u != v]
            lab2 = lab[:]
            lab2[s] = v
            lab2[s + 1:e] = rest
            cellof2 = cellof[:]
            for u in rest:
                cellof2[u] = s + 1
            cend2 = cend[:]
            cend2[s] = s + 1
            cend2[s + 1] = e
            refine(lab2, cellof2, cend2, [s])
            descend(lab2, cellof2, cend2)
            path.pop()
            if resume_depth is not None:
                if resume_depth < len(path):
                    return
                resume_depth = None

    refine(lab, cellof, cend, fresh)
    descend(lab, cellof, cend)
    assert best_code is not None
    perm = [0] * n
    for pos, v in enumerate(best_order):
        perm[v] = pos
    return best_code, tuple(perm), gens


def _split(lab: list[int], cellof: list[int], cend: list[int], s: int,
           key: list[int], fresh: list[int]) -> None:
    """Split the cell starting at s by key, ascending and stably, appending
    the start of every piece but the last to fresh."""
    e = cend[s]
    cell = sorted(lab[s:e], key=key.__getitem__)
    if key[cell[0]] == key[cell[-1]]:
        return
    lab[s:e] = cell
    p = s
    for i in range(s + 1, e + 1):
        if i == e or key[lab[i]] != key[lab[i - 1]]:
            cend[p] = i
            for j in range(p, i):
                cellof[lab[j]] = p
            if i < e:
                fresh.append(p)
            p = i


def _twin_transpositions(adj: Sequence[int], n: int) -> list[tuple[int, ...]]:
    """The transposition of each vertex and its next twin.

    False twins share their open neighbourhood and true twins their closed
    one. A class of either kind is chained by transpositions of consecutive
    members, which generate the symmetric group on the class.
    """
    gens = []
    for nbhd in (adj[:n], [adj[v] | 1 << v for v in range(n)]):
        if len(set(nbhd)) == n:
            continue
        last: dict[int, int] = {}
        for v, mask in enumerate(nbhd):
            u = last.get(mask)
            if u is not None:
                t = list(range(n))
                t[u], t[v] = v, u
                gens.append(tuple(t))
            last[mask] = v
    return gens
