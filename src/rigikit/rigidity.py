"""Generic rigidity oracle: rigidity matrices, randomized rank with explicit
certificate semantics, matroid predicates, and sparsity counts.

Certificate semantics
---------------------
The rank of the rigidity matrix at any specialization is a lower bound on the
generic rank, so:

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
A verdict computes each structural fact of (graph, d) at most once: the
count bound, the sparsity report (a subset sweep, n <= 20) and the small
vertex cut (max-flow vertex connectivity, `graph.is_k_connected`). Each
random point is eliminated once. `is_circuit` asks for the left null space
of a point, in the same elimination, only where it can use it: when |E|
exceeds the count bound, after a point that fell short of |E|, or at a sole
point. Independent graphs therefore cost one plain elimination.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

from .graph import Graph, is_k_connected
from .linalg import DEFAULT_PRIME, rank_and_left_null_mod_p, rank_exact_int, rank_mod_p

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
    integers are kept exact for the rational path."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    rng = random.Random(seed)
    span = field if field is not None else DEFAULT_PRIME
    coords = tuple(tuple(rng.randrange(span) for _ in range(d)) for _ in range(g.n))
    return Realization(d=d, coords=coords, field=field)


def rigidity_matrix(g: Graph, r: Realization) -> RigidityMatrix:
    if len(r.coords) != g.n:
        raise ValueError("realization does not cover the vertex set")
    d = r.d
    p = r.field
    rows = []
    for u, v in g.edges:
        row = [0] * (d * g.n)
        pu, pv = r.coords[u], r.coords[v]
        for k in range(d):
            diff = pu[k] - pv[k]
            if p is not None:
                diff %= p
            row[d * u + k] = diff
            row[d * v + k] = -diff if p is None else (p - diff) % p
        rows.append(tuple(row))
    return RigidityMatrix(d=d, n=g.n, field=p, rows=tuple(rows))


def _matrix_rows(g: Graph, d: int, seed: int, p: Optional[int]) -> list[list[int]]:
    r = random_realization(g, d, seed, field=p)
    return [list(row) for row in rigidity_matrix(g, r).rows]


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
    excess: int = 0  # max over subsets of |E'| - (d|V'| - C(d+1,2))

    def __bool__(self) -> bool:
        return self.sparse


def is_d_sparse(g: Graph, d: int) -> SparsityReport:
    """Exhaustive subset check of |E'| <= d|V'| - C(d+1,2) over all vertex
    sets with >= d+2 vertices. Returns a maximally violating subset when the
    check fails, and reports tightness when |E| meets the bound exactly.
    """
    if g.n > 20:
        raise ValueError("subset search limited to n <= 20")
    cdd = math.comb(d + 1, 2)
    adj = g.adj
    worst: tuple[int, int] = (0, 0)  # (excess, size)
    worst_set = -1
    if g.n >= d + 2:
        nedges = [0] * (1 << g.n)
        for s in range(1, 1 << g.n):
            low = s & -s
            rest = s ^ low
            v = low.bit_length() - 1
            cnt = nedges[rest] + (adj[v] & rest).bit_count()
            nedges[s] = cnt
            size = s.bit_count()
            if size >= d + 2:
                excess = cnt - (d * size - cdd)
                if excess > 0 and (excess, size) > worst:
                    worst = (excess, size)
                    worst_set = s
    sparse = worst_set < 0
    violator = None
    if not sparse:
        violator = frozenset(v for v in range(g.n) if worst_set >> v & 1)
    tight = sparse and g.m == d * g.n - cdd
    return SparsityReport(d=d, sparse=sparse, tight=tight, violator=violator, excess=worst[0])


def small_cut(g: Graph, d: int) -> Optional[frozenset[int]]:
    """A vertex cut of size <= d-1, or None. An empty frozenset means the
    graph is disconnected."""
    if g.n < 2:
        return None
    ok, witness = is_k_connected(g, d)
    return witness if not ok else None


def dependent_by_cut(g: Graph, d: int) -> Optional[frozenset[int]]:
    """Deterministic dependence certificate: a vertex cut of size <= d-1 in a
    d-tight graph forces r_d(G) <= d|V| - C(d+1,2) - 1 < |E|."""
    if g.n < d + 2:
        raise ValueError("cut certificate needs |V| >= d+2")
    return _Facts(g, d).dependence_cut


class _Facts:
    """The structural facts one verdict consults about (graph, d): the count
    bound, the sparsity report, a vertex cut of size <= d-1, and the cut
    that proves dependence. Each is computed at most once, when first asked
    for, and lives only as long as the verdict that holds it."""

    def __init__(self, g: Graph, d: int) -> None:
        self.g = g
        self.d = d
        self.ub = count_upper_bound(g, d)

    @cached_property
    def sparsity(self) -> SparsityReport:
        return is_d_sparse(self.g, self.d)

    @cached_property
    def cut(self) -> Optional[frozenset[int]]:
        return small_cut(self.g, self.d)

    @cached_property
    def dependence_cut(self) -> Optional[frozenset[int]]:
        """The small cut when the graph is d-tight, else None. On n <= d+1
        vertices a tight graph is complete or has n <= d, so it has no cut."""
        return self.cut if self.sparsity.tight else None


# a trial point: the rank there, and a left null space basis when computed
_Point = tuple[int, Optional[list[list[int]]]]


def _evaluate(
    g: Graph, d: int, trials: int, seed: int, p: int, ub: int, want_null: bool
) -> tuple[list[_Point], random.Random]:
    """Rank R(G,p) at up to `trials` random points, stopping once the count
    bound `ub` is met. Returns the points and the generator that drew them,
    positioned after the last draw.

    With `want_null`, a point is eliminated together with its left null
    space when |E| > ub (R(G,p) then has dependent rows), when it is not the
    first point (an earlier one fell short of ub <= |E|), or when `trials`
    is 1.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    m = g.m
    rng = random.Random(seed)
    points: list[_Point] = []
    for _ in range(trials):
        rows = _matrix_rows(g, d, rng.getrandbits(63), p)
        if want_null and (m > ub or points or trials == 1):
            points.append(rank_and_left_null_mod_p(rows, p))
        else:
            points.append((rank_mod_p(rows, p), None))
        if points[-1][0] >= ub:
            break
    return points, rng


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
    points, _ = _evaluate(g, d, trials, seed, p, facts.ub, want_null=False)
    return _assess(facts, points, p, threshold)


def _assess(
    facts: _Facts, points: list[_Point], p: int, threshold: float
) -> MatroidVerdict:
    g, d, ub = facts.g, facts.d, facts.ub
    m = g.m
    rank_lb = max(rank for rank, _ in points)
    used = len(points)
    bound = sz_bound(ub, p, used)

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
    target = rigidity_target(g, d)
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
        field_primes=(p,),
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
    points. Remaining cases fall back to per-edge evaluations.
    """
    m = g.m
    facts = _Facts(g, d)
    points, rng = _evaluate(g, d, trials, seed, p, facts.ub, want_null=True)
    verdict = _assess(facts, points, p, threshold)
    if verdict.independent:
        return False, verdict
    if verdict.independent is None:
        return None, verdict

    if verdict.rank_lb < m - 1:
        # some deletion would still be dependent, so G is not minimal;
        # deterministic when a sparsity violation survives any one deletion
        if facts.sparsity.excess >= 2:
            return False, replace(verdict, circuit=False, flexible_circuit=False)
        szb = sz_bound(verdict.count_ub, p, verdict.trials)
        circuit = False if szb <= threshold else None
        flex = False if circuit is False else None
        return circuit, replace(verdict, circuit=circuit, flexible_circuit=flex)

    # rank_lb == m-1. A circuit's generic rank is |E|-1, so its flexibility
    # is a count comparison
    flexible = m - 1 < rigidity_target(g, d)
    circuit_verdict = replace(verdict, circuit=True, flexible_circuit=flexible,
                              rigid=not flexible)
    # stress support fast path at the evaluated points
    for rank, null in points:
        if rank == m - 1 and null is not None and len(null) == 1 and all(null[0]):
            return True, circuit_verdict
    # fall back to explicit per-edge checks with fresh points
    for e in g.edges:
        ge = g.without_edge(*e)
        sub, subv = is_independent(ge, d, trials=trials, seed=rng.getrandbits(63),
                                   p=p, threshold=threshold)
        if sub is True:
            continue
        circuit = False if sub is False else None
        cert = verdict.certificate
        if circuit is False and cert.kind == CERT_MONTE_CARLO:
            # the claim now also rests on the deletion's dependence
            cert = replace(cert, failure_bound=cert.failure_bound
                           + subv.certificate.failure_bound)
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
    """Support of the unique row dependency of R(G,p) at a random point.

    Returns the edges carrying a nonzero entry of the one-dimensional left
    null space, or None when the nullity at the sampled point is not one.
    When the generic nullity is one this support contains the unique circuit,
    and each edge outside it deterministically leaves a dependent deletion.
    """
    rng = random.Random(seed)
    rows = _matrix_rows(g, d, rng.getrandbits(63), p)
    rank, null = rank_and_left_null_mod_p(rows, p)
    if len(null) != 1:
        return None
    return frozenset(e for e, x in zip(g.edges, null[0]) if x)


def rank_rational(g: Graph, d: int, seed: int = 0) -> int:
    """Exact rank over Q at integer coordinates (cross-check path)."""
    rows = _matrix_rows(g, d, seed, None)
    return rank_exact_int(rows)
