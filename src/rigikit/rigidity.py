"""Generic rigidity oracle: rigidity matrices, randomized rank with explicit
certificate semantics, matroid predicates, and sparsity counts.

Certificate semantics
---------------------
The rank of the rigidity matrix at any specialization, over any prime
field, is a lower bound on the generic rank, so:

* independence (rank = |E|) claimed from one full-row-rank evaluation is a
  proof, as is rigidity claimed from an evaluation meeting the count bound
  d|V| - C(d+1,2);
* dependence is proved deterministically by a subgraph violating the
  sparsity count, or by a vertex cut of size <= d-1 in a d-tight graph (one
  that is d-sparse with exactly d|V| - C(d+1,2) edges); a small cut alone
  proves only flexibility. Otherwise dependence and flexibility rest on
  Schwartz-Zippel: the probability that `trials` independent uniform
  evaluations all miss the generic rank is at most (r/p)^trials, r being the
  count upper bound;
* a circuit's flexibility follows from its count: once G is shown to be a
  circuit its generic rank is |E| - 1, so it is flexible exactly when
  |E| - 1 < d|V| - C(d+1,2).

Any dependence-style claim whose failure bound exceeds the configured
threshold is reported as unresolved (None) rather than guessed.

Work per verdict
----------------
A verdict computes each structural fact of (graph, d) at most once, and
one `_Facts` holds them all: the count bound and target, the verdict's
points, the sparsity report (a search inside the (d+1)-core, see
`is_d_sparse`) and the small vertex cut (max-flow vertex connectivity,
`graph.is_k_connected`). `_evaluate` fills `_Facts.points`. Each random
point is drawn by `_point` and eliminated once, its rows packed straight
from the coordinates (`linalg._PointRows`) with no matrix built.

The first point's seed is evaluated first modulo the 15-bit prime 32749,
where the packed elimination needs one 64-bit word per column. A rank
there that meets the count bound settles the verdict on that point alone,
and every flag it settles is deterministic. Otherwise the point is dropped
and the same seed starts the points at p (by default the 62-bit prime), so
those points, and every Monte Carlo bound, are what they are without the
first pass. `field_primes` names the prime of the points a verdict rests
on.

`is_circuit` asks for the left null space of a point, in the same
elimination, only where it can use it: when |E| exceeds the count bound,
after a point at p that fell short of |E|, or at a sole point. Independent
graphs therefore cost one plain elimination. Its per-edge fallback needs
only whether each G-e is independent: a deletion that keeps a sparsity
violator is dependent with no point evaluated and no cut searched, and
only the d-sparse deletions are evaluated. When G is not d-sparse and e
has an end outside G's (d+1)-core, G-e keeps G's largest violator, which
lies inside that core, so that deletion costs no second sparsity search.

A verdict's points often settle the sparsity report with no search at
all. Write excess(X) = |E(X)| - (d|X| - C(d+1,2)) and r_p for the rank at
a point. For every vertex set X with |X| >= d+2,

    excess(X) <= |E(X)| - r_p(E(X)) <= |E| - r_p(E),

since r_p is at most the generic rank, which is at most d|X| - C(d+1,2),
and the rows outside E(X) raise the rank by at most their number. So on
n >= d+2 vertices, once the points are in (`_Facts.sparsity`):

* rank rule: a point of rank d|V| - C(d+1,2) < |E| makes V a set of the
  largest excess, |E| minus that rank, and no other set is as large;
* null-vector rule: a point of rank |E|-1 whose one left null vector has
  no zero entry leaves every proper edge subset independent, so excess(X)
  <= 0 unless E(X) = E. With no isolated vertex only V spans E, so G is
  d-sparse when |E| <= d|V| - C(d+1,2), tight at equality, and otherwise
  V is the violator as in the rank rule.

Only a graph its points do not settle is searched (`is_d_sparse`), and so
is one whose report is read before any point is taken.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

from .graph import Graph, _bits, is_k_connected
from .linalg import (
    DEFAULT_PRIME,
    _PointRows,
    rank_and_left_null_mod_p,
    rank_exact_int,
    rank_mod_p,
)

# Dependence claims with a Monte Carlo failure bound above this are unresolved.
DEFAULT_THRESHOLD = 2.0**-80
DEFAULT_TRIALS = 2

CERT_INDEPENDENT = "deterministic-independent"
CERT_DEPENDENT_COUNT = "deterministic-dependent-count"
CERT_DEPENDENT_CUT = "deterministic-dependent-cut"
CERT_MONTE_CARLO = "monte-carlo"


@dataclass(frozen=True)
class Realization:
    """d field-element coordinates per vertex; field None means exact integers."""

    d: int
    coords: tuple[tuple[int, ...], ...]
    field: Optional[int] = DEFAULT_PRIME

    def __post_init__(self) -> None:
        for c in self.coords:
            if len(c) != self.d:
                raise ValueError("every vertex needs exactly d coordinates")


@dataclass(frozen=True)
class RigidityMatrix:
    """R(G,p): rows hold the integer coordinate differences, and over a
    prime field they stand for their residues."""

    d: int
    n: int
    field: Optional[int]
    rows: tuple[tuple[int, ...], ...]  # one row per edge, in Graph.edges order


@dataclass(frozen=True)
class Certificate:
    kind: str
    failure_bound: float = 0.0
    witness: Optional[frozenset[int]] = None  # violating subset or cut

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == CERT_MONTE_CARLO:
            out["failure_bound"] = self.failure_bound
        if self.witness is not None:
            out["witness"] = sorted(self.witness)
        return out


@dataclass(frozen=True)
class MatroidVerdict:
    d: int
    rank_lb: int
    count_ub: int
    trials: int
    field_primes: tuple[int, ...]
    certificate: Certificate
    independent: Optional[bool] = None
    rigid: Optional[bool] = None
    circuit: Optional[bool] = None
    flexible_circuit: Optional[bool] = None

    def flags(self) -> dict[str, Optional[bool]]:
        return {
            "independent": self.independent,
            "rigid": self.rigid,
            "circuit": self.circuit,
            "flexible_circuit": self.flexible_circuit,
        }

    def to_json(self, g: Optional[Graph] = None) -> dict:
        out = {
            "d": self.d,
            "rank_lb": self.rank_lb,
            "count_ub": self.count_ub,
            "trials": self.trials,
            "primes": list(self.field_primes),
            "certificate": self.certificate.to_json(),
            "flags": self.flags(),
        }
        if g is not None:
            out["graph6"] = g.to_graph6()
        return out


def count_upper_bound(g: Graph, d: int) -> int:
    """min(|E|, d|V| - C(d+1,2)): a certified upper bound on generic rank."""
    if g.n >= d + 2:
        return min(g.m, d * g.n - math.comb(d + 1, 2))
    return g.m


def rigidity_target(g: Graph, d: int) -> int:
    return d * g.n - math.comb(d + 1, 2)


def random_realization(
    g: Graph, d: int, seed: int, field: Optional[int] = DEFAULT_PRIME
) -> Realization:
    """Coordinates drawn uniformly from [0, p); with field=None the same
    integers are kept exact for the rational path.

    The coordinates, vertex by vertex, are those `random.Random(seed)`
    gives for successive `randrange(span)` calls: k-bit draws,
    k = span.bit_length(), each kept when below span. Every draw has the
    same k, so the kept draws of the whole stream, in order, are the
    coordinates, and they are taken in batches."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    getrandbits = random.Random(seed).getrandbits
    span = field if field is not None else DEFAULT_PRIME
    k, want = span.bit_length(), g.n * d
    flat: list[int] = []
    while len(flat) < want:
        draws = map(getrandbits, itertools.repeat(k, want - len(flat)))
        flat += [x for x in draws if x < span]
    coords = tuple(zip(*[iter(flat)] * d))
    return Realization(d=d, coords=coords, field=field)


def rigidity_matrix(g: Graph, r: Realization) -> RigidityMatrix:
    if len(r.coords) != g.n:
        raise ValueError("realization does not cover the vertex set")
    rows = tuple(_PointRows(r.d, g.edges, r.coords))
    return RigidityMatrix(d=r.d, n=g.n, field=r.field, rows=rows)


def sz_bound(count_ub: int, p: int, trials: int) -> float:
    """Schwartz-Zippel: an r x r minor of total degree <= r vanishes at a
    uniform point with probability <= r/p; trials are independent."""
    return float((count_ub / p) ** trials)


@dataclass(frozen=True)
class SparsityReport:
    d: int
    sparse: bool
    tight: bool
    violator: Optional[frozenset[int]] = None
    # the largest |E'| - (d|V'| - C(d+1,2)) over vertex sets with >= d+2
    # vertices when it is positive; 0 whenever the graph is sparse
    excess: int = 0

    def __bool__(self) -> bool:
        return self.sparse


def is_d_sparse(g: Graph, d: int) -> SparsityReport:
    """Check |E'| <= d|V'| - C(d+1,2) on every vertex set with >= d+2
    vertices. When the check fails, `excess` is the largest violation and
    `violator` the largest set attaining it, ties going to the smallest
    bitmask. `tight` reports a sparse graph with |E| = d|V| - C(d+1,2).

    Write excess(X) = e(X) - d|X| + C(d+1,2). The search never sweeps all
    2^n vertex sets:

    * Peeling lemma: if |X| >= d+3 and v in X has at most d neighbours in
      X, then excess(X - v) >= excess(X). Peeling a violating set ends in a
      K_{d+2} or in a set of minimum degree >= d+1, so the largest excess is
      attained inside the (d+1)-core C.
    * Closure rule: adding a vertex with at least d neighbours in a set of
      largest excess keeps its excess. Peeling a largest maximizer drops
      only vertices with exactly d neighbours, and adding them back is such
      a closure, so the largest maximizers are the largest closures of the
      maximizers inside C.
    * Counting: let s = d|C| - C(d+1,2) - e(C) and Y = C - X. Every core
      degree is >= d+1, so excess(X) = -s - sum_{y in Y}(deg_C y - d) + e(Y)
      <= -s - |Y| + C(|Y|,2), and X beats C only if |Y| >= 4. So for
      |C| <= d+5 the answer is C's own count. At |C| = d+6 a violator other
      than C has |Y| = 4, so it is a K_{d+2}, of excess 1 <= 2 - s; when
      s < 0 C wins, and when s is 0 or 1 a clique search finds them all.
      Larger cores are swept, 2^|C| subsets; one of more than 20 vertices
      raises ValueError.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    adj = g.adj
    excess, tops = _largest_excess(adj, d)
    violator = None
    if tops:
        best = min((_closure(adj, x, d) for x in tops), key=lambda x: (-x.bit_count(), x))
        violator = frozenset(_bits(best))
    sparse = not tops
    tight = sparse and g.m == rigidity_target(g, d)
    return SparsityReport(d=d, sparse=sparse, tight=tight, violator=violator, excess=excess)


def _largest_excess(adj: Sequence[int], d: int) -> tuple[int, list[int]]:
    """The search of `is_d_sparse` on bitmask adjacency: the largest excess
    over vertex sets with >= d+2 vertices and the maximizers inside the
    (d+1)-core; (0, []) exactly when the graph is d-sparse."""
    return _core_maximizers(adj, _core(adj, d + 1), d)


def _core(adj: Sequence[int], k: int) -> int:
    """Bitmask of the k-core: what is left after deleting, one at a time,
    vertices with fewer than k neighbours left."""
    core = (1 << len(adj)) - 1
    stack = [v for v, a in enumerate(adj) if a.bit_count() < k]
    while stack:
        v = stack.pop()
        core ^= 1 << v
        for w in _bits(adj[v] & core):
            if (adj[w] & core).bit_count() == k - 1:  # just fell below k
                stack.append(w)
    return core


# bytes.translate table adding one to every byte value below 255
_PLUS_ONE = bytes(range(1, 256)) + b"\0"


def _core_maximizers(adj: Sequence[int], core: int, d: int) -> tuple[int, list[int]]:
    """The largest excess over sets inside the (d+1)-core with >= d+2
    vertices, and bitmasks of sets attaining it such that every set inside
    the core attaining it lies in one of them; (0, []) when no excess is
    positive."""
    vs = list(_bits(core))
    k = len(vs)
    if k < d + 2:
        return 0, []
    cdd = math.comb(d + 1, 2)
    s = d * k - cdd - sum((adj[v] & core).bit_count() for v in vs) // 2
    if s < 0 and k <= d + 6:
        return -s, [core]
    if k < d + 6:
        return 0, []
    if k == d + 6:
        # s >= 0 here, so a violator is a K_{d+2}, of excess 1 <= 2 - s
        tops = _cliques(adj, core, d + 2) if s <= 1 else []
        return (1, tops) if tops else (0, [])

    if k > 20:
        raise ValueError("subset search limited to a (d+1)-core of <= 20 vertices")
    pos = {v: i for i, v in enumerate(vs)}
    local = [sum(1 << pos[w] for w in _bits(adj[v] & core)) for v in vs]
    # score(X) = e(X) + d|C - X| = excess(X) + d|C| - C(d+1,2) for X inside
    # the core, by local bitmask: small nonnegative ints, which CPython shares
    score = [d * k]
    for a in local:
        score += [x + (a & y).bit_count() - d for y, x in enumerate(score)]
    size = b"\0"  # |X|, likewise
    for _ in local:
        size += size.translate(_PLUS_ONE)
    big = size.translate(bytes(c >= d + 2 for c in range(256)))
    top = max(itertools.compress(score, big))
    excess = top - d * k + cdd
    if excess <= 0:
        return 0, []
    tops, y = [], -1
    for _ in range(score.count(top)):
        y = score.index(top, y + 1)
        if big[y]:
            tops.append(sum(1 << vs[i] for i in _bits(y)))
    return excess, tops


def _cliques(adj: tuple[int, ...], cand: int, size: int) -> list[int]:
    """Bitmasks of the cliques of `size` vertices inside `cand`."""
    if size == 0:
        return [0]
    out = []
    while cand.bit_count() >= size:
        low = cand & -cand
        cand ^= low
        rest = cand & adj[low.bit_length() - 1]
        out += [low | c for c in _cliques(adj, rest, size - 1)]
    return out


def _closure(adj: tuple[int, ...], x: int, d: int) -> int:
    """x grown by every vertex with at least d neighbours in it, repeatedly."""
    grown = True
    while grown:
        grown = False
        for v, a in enumerate(adj):
            if not x >> v & 1 and (a & x).bit_count() >= d:
                x |= 1 << v
                grown = True
    return x


def small_cut(g: Graph, d: int) -> Optional[frozenset[int]]:
    """A vertex cut of size <= d-1, or None. An empty frozenset means the
    graph is disconnected."""
    ok, witness = is_k_connected(g, d)
    return witness if not ok else None


def dependent_by_cut(g: Graph, d: int) -> Optional[frozenset[int]]:
    """Deterministic dependence certificate: a vertex cut of size <= d-1 in a
    d-tight graph forces r_d(G) <= d|V| - C(d+1,2) - 1 < |E|."""
    if g.n < d + 2:
        raise ValueError("cut certificate needs |V| >= d+2")
    return _Facts(g, d).dependence_cut


# a trial point: the rank there, and a left null space basis when computed
_Point = tuple[int, Optional[list[list[int]]]]


def _point(g: Graph, d: int, seed: int, prime: int, null: bool) -> _Point:
    """The rank of R(G) modulo `prime` at the point `random_realization`
    draws from `seed`, with a left null space basis when `null` asks."""
    rows = _PointRows(d, g.edges, random_realization(g, d, seed, field=prime).coords)
    if null:
        return rank_and_left_null_mod_p(rows, prime)
    return rank_mod_p(rows, prime), None


def _full_stress(points: list[_Point], m: int) -> bool:
    """Whether some point has rank m-1 and its one left null vector no zero
    entry: every single-row deletion is then full-row-rank there."""
    return any(r == m - 1 and null is not None and len(null) == 1 and all(null[0])
               for r, null in points)


class _Facts:
    """The one state of a verdict on (graph, d): the count bound and target,
    the verdict's points (`_evaluate` fills `points`), the sparsity report,
    the (d+1)-core, a vertex cut of size <= d-1, and the cut that proves
    dependence. Each fact is computed at most once, when first asked for,
    and lives only as long as the verdict that holds it.

    The point rules live in `sparsity`. At a point of rank r_p, every
    vertex set X with >= d+2 vertices has excess(X) <= |E(X)| - r_p(E(X))
    <= |E| - r_p(E). So on n >= d+2 vertices a rank d|V| - C(d+1,2) < |E|
    makes V the largest set of the largest excess, |E| - r_p (the rank
    rule), and a nowhere-zero stress with no isolated vertex leaves V the
    only set that can exceed the count (the null-vector rule). Otherwise,
    and whenever the report is read before any point is taken,
    `is_d_sparse` searches."""

    def __init__(self, g: Graph, d: int) -> None:
        self.g = g
        self.d = d
        self.ub = count_upper_bound(g, d)
        self.target = rigidity_target(g, d)
        self.points: list[_Point] = []

    @cached_property
    def sparsity(self) -> SparsityReport:
        g, d, target, points = self.g, self.d, self.target, self.points
        if g.n >= d + 2 and points:
            rank = max(r for r, _ in points)
            if rank == target < g.m or (_full_stress(points, g.m) and all(g.adj)):
                excess = max(g.m - target, 0)
                return SparsityReport(
                    d=d, sparse=not excess, tight=g.m == target, excess=excess,
                    violator=frozenset(range(g.n)) if excess else None)
        return is_d_sparse(g, d)

    @cached_property
    def core(self) -> int:
        """Bitmask of the (d+1)-core."""
        return _core(self.g.adj, self.d + 1)

    def keeps_violator(self, u: int, v: int) -> bool:
        """Whether G - uv is known not to be d-sparse from G's facts alone:
        G is not d-sparse and u or v lies outside the (d+1)-core. A largest
        violator of G lies inside that core (the peeling lemma of
        `is_d_sparse`), so uv is none of its edges and it survives."""
        return not self.sparsity.sparse and not self.core >> u & self.core >> v & 1

    @cached_property
    def cut(self) -> Optional[frozenset[int]]:
        return small_cut(self.g, self.d)

    @cached_property
    def dependence_cut(self) -> Optional[frozenset[int]]:
        """The small cut when the graph is d-tight, else None. On n <= d+1
        vertices a tight graph is complete or has n <= d, so it has no cut."""
        return self.cut if self.sparsity.tight else None


# The largest prime below 2^15: the packed elimination modulo it keeps each
# column in one 64-bit word for matrices of up to ~170 rows, where the
# default prime needs 4. A rank at any prime bounds the generic rank from
# below, so a point there that meets the count bound certifies as well as
# one at the default prime does.
_SMALL_PRIME = 32749


def _evaluate(
    facts: _Facts, trials: int, seed: int, p: int, want_null: bool
) -> tuple[int, random.Random]:
    """Rank R(G) at up to `trials` random points, stopping once the count
    bound is met. Fills `facts.points`, where `_Facts.sparsity` applies the
    point rules, and returns the prime the points were taken at and the
    generator that drew their seeds, positioned after the last draw.

    When p exceeds _SMALL_PRIME, the first point's seed is evaluated there
    first. If that point meets the count bound, the verdict rests on it
    alone. Otherwise it is dropped, and the points at p, from that same
    seed on, are exactly those drawn without it.

    With `want_null`, a point is eliminated together with its left null
    space when |E| > ub (R(G) then has dependent rows), when it is not the
    first point at p (an earlier one fell short of ub <= |E|), or when
    `trials` is 1.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    g, d, ub = facts.g, facts.d, facts.ub
    first_null = want_null and (g.m > ub or trials == 1)
    rng = random.Random(seed)
    first = rng.getrandbits(63)
    if p > _SMALL_PRIME:
        facts.points = [_point(g, d, first, _SMALL_PRIME, first_null)]
        if facts.points[0][0] >= ub:
            return _SMALL_PRIME, rng
    points = facts.points = [_point(g, d, first, p, first_null)]
    while points[-1][0] < ub and len(points) < trials:
        points.append(_point(g, d, rng.getrandbits(63), p, want_null))
    return p, rng


def generic_rank(
    g: Graph,
    d: int,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    p: int = DEFAULT_PRIME,
    threshold: float = DEFAULT_THRESHOLD,
) -> MatroidVerdict:
    """Best observed rank of R(G,p) over up to `trials` random prime-field
    points. Stops early once the count upper bound is reached, since the
    generic rank is then known exactly. Fills the independent/rigid flags;
    circuit flags stay undetermined unless independence already settles them
    (use is_circuit / is_flexible_circuit for those).
    """
    facts = _Facts(g, d)
    prime, _ = _evaluate(facts, trials, seed, p, want_null=False)
    return _assess(facts, prime, threshold)


def _assess(facts: _Facts, prime: int, threshold: float) -> MatroidVerdict:
    """The verdict on the points of `facts`, taken at `prime`. Points at
    _SMALL_PRIME meet the count bound, so every flag they settle is
    deterministic."""
    g, d, ub, target = facts.g, facts.d, facts.ub, facts.target
    m = g.m
    rank_lb = max(rank for rank, _ in facts.points)
    used = len(facts.points)
    bound = sz_bound(ub, prime, used)

    if rank_lb == m:
        cert = Certificate(CERT_INDEPENDENT)
        independent: Optional[bool] = True
    elif not facts.sparsity.sparse:
        cert = Certificate(CERT_DEPENDENT_COUNT, witness=facts.sparsity.violator)
        independent = False
    elif facts.dependence_cut is not None:
        cert = Certificate(CERT_DEPENDENT_CUT, witness=facts.dependence_cut)
        independent = False
    else:
        cert = Certificate(CERT_MONTE_CARLO, failure_bound=bound)
        independent = False if bound <= threshold else None

    rigid: Optional[bool]
    if g.n <= d + 1:
        # small graphs: every graph is independent, and rigid exactly when
        # complete; trusted once the rank is witnessed
        if rank_lb == m:
            rigid = m == math.comb(g.n, 2)
        else:
            rigid = None  # freak specialization failure; do not guess
    elif rank_lb >= target:
        rigid = True
    elif ub < target:
        rigid = False  # too few edges to ever reach the bound
    elif facts.cut is not None:
        rigid = False
    else:
        rigid = False if bound <= threshold else None

    circuit: Optional[bool] = None
    flexible: Optional[bool] = None
    if independent:
        circuit = False
        flexible = False

    return MatroidVerdict(
        d=d,
        rank_lb=rank_lb,
        count_ub=ub,
        trials=used,
        field_primes=(prime,),
        certificate=cert,
        independent=independent,
        rigid=rigid,
        circuit=circuit,
        flexible_circuit=flexible,
    )


def is_independent(
    g: Graph, d: int, trials: int = DEFAULT_TRIALS, seed: int = 0,
    p: int = DEFAULT_PRIME, threshold: float = DEFAULT_THRESHOLD,
) -> tuple[Optional[bool], MatroidVerdict]:
    v = generic_rank(g, d, trials=trials, seed=seed, p=p, threshold=threshold)
    return v.independent, v


def is_rigid(
    g: Graph, d: int, trials: int = DEFAULT_TRIALS, seed: int = 0,
    p: int = DEFAULT_PRIME, threshold: float = DEFAULT_THRESHOLD,
) -> tuple[Optional[bool], MatroidVerdict]:
    v = generic_rank(g, d, trials=trials, seed=seed, p=p, threshold=threshold)
    return v.rigid, v


def is_circuit(
    g: Graph, d: int, trials: int = DEFAULT_TRIALS, seed: int = 0,
    p: int = DEFAULT_PRIME, threshold: float = DEFAULT_THRESHOLD,
) -> tuple[Optional[bool], MatroidVerdict]:
    """Minimal dependence: G dependent but G-e independent for every edge.

    The deletion side is settled deterministically whenever possible: at a
    point where R(G) has rank |E|-1 and the one-dimensional left null space
    has no zero entry, every single-row deletion is witnessed full-row-rank
    at that same point. The null spaces come from the rank evaluation's own
    points. Remaining cases fall back to per-edge checks, each of which
    needs only whether G-e is independent: a deletion that keeps a sparsity
    violator is dependent without a point, and only the d-sparse ones are
    evaluated. G-e is searched for a violator only when G is d-sparse or e
    lies inside G's (d+1)-core (`_Facts.keeps_violator`).
    """
    m = g.m
    facts = _Facts(g, d)
    prime, rng = _evaluate(facts, trials, seed, p, want_null=True)
    verdict = _assess(facts, prime, threshold)
    if verdict.independent:
        return False, verdict
    if verdict.independent is None:
        return None, verdict

    if verdict.rank_lb < m - 1:
        # some deletion would still be dependent, so G is not minimal;
        # deterministic when a sparsity violation survives any one deletion
        if facts.sparsity.excess >= 2:
            return False, replace(verdict, circuit=False, flexible_circuit=False)
        szb = sz_bound(verdict.count_ub, prime, verdict.trials)
        circuit = False if szb <= threshold else None
        flex = False if circuit is False else None
        return circuit, replace(verdict, circuit=circuit, flexible_circuit=flex)

    # rank_lb == m-1. A circuit's generic rank is |E|-1, so its flexibility
    # is a count comparison
    flexible = m - 1 < facts.target
    circuit_verdict = replace(verdict, circuit=True, flexible_circuit=flexible,
                              rigid=not flexible)
    # stress support fast path at the evaluated points
    if _full_stress(facts.points, m):
        return True, circuit_verdict
    # fall back to explicit per-edge checks with fresh points
    for e in g.edges:
        sub_seed = rng.getrandbits(63)  # drawn for every deletion: later seeds stay put
        sub = None if facts.keeps_violator(*e) else _Facts(g.without_edge(*e), d)
        if sub is None or not sub.sparsity.sparse:
            circuit, sub_bound = False, 0.0  # G-e keeps a sparsity violator
        else:
            sub_prime, _ = _evaluate(sub, trials, sub_seed, p, want_null=False)
            subv = _assess(sub, sub_prime, threshold)
            if subv.independent:
                continue
            circuit = False if subv.independent is False else None
            sub_bound = subv.certificate.failure_bound
        cert = verdict.certificate
        if circuit is False and cert.kind == CERT_MONTE_CARLO:
            # the claim now also rests on the deletion's dependence
            cert = replace(cert, failure_bound=cert.failure_bound + sub_bound)
        out = replace(verdict, circuit=circuit, certificate=cert,
                      flexible_circuit=False if circuit is False else None)
        return circuit, out
    return True, circuit_verdict


def is_flexible_circuit(
    g: Graph, d: int, trials: int = DEFAULT_TRIALS, seed: int = 0,
    p: int = DEFAULT_PRIME, threshold: float = DEFAULT_THRESHOLD,
) -> tuple[Optional[bool], MatroidVerdict]:
    """Circuit and not rigid."""
    _, v = is_circuit(g, d, trials=trials, seed=seed, p=p, threshold=threshold)
    return v.flexible_circuit, v


def stress_support(
    g: Graph, d: int, seed: int = 0, p: int = DEFAULT_PRIME
) -> Optional[frozenset[tuple[int, int]]]:
    """Support of the unique row dependency of R(G,p) at a random point, the
    first one a verdict with this seed takes at p.

    Returns the edges carrying a nonzero entry of the one-dimensional left
    null space, or None when the nullity at the sampled point is not one.
    When the generic nullity is one this support contains the unique circuit,
    and each edge outside it deterministically leaves a dependent deletion.
    """
    _, null = _point(g, d, random.Random(seed).getrandbits(63), p, null=True)
    if len(null) != 1:
        return None
    return frozenset(e for e, x in zip(g.edges, null[0]) if x)


def rank_rational(g: Graph, d: int, seed: int = 0) -> int:
    """Exact rank over Q at integer coordinates (cross-check path)."""
    return rank_exact_int(rigidity_matrix(g, random_realization(g, d, seed, field=None)).rows)
