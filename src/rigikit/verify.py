"""Verification harness: reproduces each computational claim end-to-end and
emits machine-readable reports.

A report's status is "pass" only when every instance check holds either
deterministically or within the configured Monte Carlo failure threshold;
any unresolved verdict fails closed with its own status and exit code.
Reports are reproducible given (version, seed, partition); wall time is
informational and excluded from that contract.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import __version__
from .canon import canonical_code, canonical_form
from .constructions import (
    build_glued_cliques,
    cone,
    enumerate_glued_cliques_plus,
    one_extension,
    t_sum,
    two_sum,
    vertex_split,
    zero_extension,
)
from .enumeration import SearchSpec, _survivors, enumerate_constrained, enumerate_regular
from .graph import Graph, complete_bipartite, complete_graph, distance, find_deg23_witness
from .rigidity import (
    CERT_DEPENDENT_CUT,
    dependent_by_cut,
    generic_rank,
    is_circuit,
    is_flexible_circuit,
    is_independent,
    is_rigid,
    rigidity_target,
    small_cut,
    stress_support,
)

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_UNRESOLVED = "unresolved"


def default_seed() -> int:
    return int(os.environ.get("RIGIKIT_SEED", "20260801"))


@dataclass
class VerificationReport:
    claim: str
    status: str
    seed: int
    instances: int
    details: list[dict] = field(default_factory=list)
    wall_time_s: float = 0.0
    version: str = __version__
    schema: int = 2

    def to_json(self) -> dict:
        return {
            "schema": self.schema,
            "version": self.version,
            "claim": self.claim,
            "status": self.status,
            "seed": self.seed,
            "instances": self.instances,
            "wall_time_s": self.wall_time_s,
            "details": self.details,
        }

    def exit_code(self) -> int:
        return {STATUS_PASS: 0, STATUS_FAIL: 1, STATUS_UNRESOLVED: 2}[self.status]


def _finish(claim: str, seed: int, checks: list[dict], t0: float) -> VerificationReport:
    """The report of `checks`: it fails if one fails, else is unresolved if
    one is, and counts each check's `instances`, or 1 for a check without."""
    status = STATUS_PASS
    if any(c.get("ok") is None for c in checks):
        status = STATUS_UNRESOLVED
    if any(c.get("ok") is False for c in checks):
        status = STATUS_FAIL
    return VerificationReport(
        claim=claim, status=status, seed=seed,
        instances=sum(c.get("instances", 1) for c in checks),
        details=checks, wall_time_s=round(time.perf_counter() - t0, 3),
    )


def verify_regular_independence(
    part: int, seed: Optional[int] = None, partition: tuple[int, int] = (0, 1)
) -> VerificationReport:
    """Every 6-regular graph on 10 vertices is independent at d=4 (part 1);
    every 12-regular graph on 15 vertices is independent at d=9 (part 2).
    The class counts (21 and 17) are asserted alongside."""
    if part not in (1, 2):
        raise ValueError("part must be 1 or 2")
    seed = default_seed() if seed is None else seed
    t0 = time.perf_counter()
    n, k, d, expect = (10, 6, 4, 21) if part == 1 else (15, 12, 9, 17)
    checks: list[dict] = []
    count = 0
    for g in enumerate_regular(n, k, partition=partition):
        count += 1
        ok, v = is_independent(g, d, trials=1, seed=seed + count)
        target = rigidity_target(g, d)
        checks.append({
            "name": f"{k}-regular-{n}v-#{count}",
            "ok": ok is True and v.rank_lb == g.m == target,
            **v.to_json(g),
        })
    full_run = partition == (0, 1)
    checks.append({
        "name": f"class-count-{n}-{k}",
        "ok": (count == expect) if full_run else True,
        "count": count,
        "expected": expect if full_run else None,
    })
    return _finish(f"regular-independence-{'i' if part == 1 else 'ii'}", seed, checks, t0)


def _flexible_families(d: int) -> list[tuple[str, Graph]]:
    """The named flexible circuits at dimension d: B_{d,d-1}, B_{d,d-2}
    when d >= 4, and the members of enumerate_glued_cliques_plus(d)."""
    members = [(f"glued-cliques-{d}-{d-1}", build_glued_cliques(d, d - 1).graph)]
    if d >= 4:
        members.append((f"glued-cliques-{d}-{d-2}", build_glued_cliques(d, d - 2).graph))
    for i, c in enumerate(enumerate_glued_cliques_plus(d), start=1):
        members.append((f"glued-cliques-plus-{d}-#{i}", c.graph))
    return members


def verify_families(d_max: int = 5, seed: Optional[int] = None) -> VerificationReport:
    """The overlapping-clique families are flexible circuits at their native
    dimension, with a cut-based flexibility certificate; K_{d+2,d+2} is a
    circuit for d >= 3 and flexible exactly when d >= 4."""
    if d_max < 3:
        raise ValueError("d_max must be >= 3")
    seed = default_seed() if seed is None else seed
    t0 = time.perf_counter()
    checks: list[dict] = []
    expected_rank = {(3, 2): 17, (4, 3): 25, (4, 2): 27}

    for d in range(3, d_max + 1):
        for name, g in _flexible_families(d):
            flex, v = is_flexible_circuit(g, d, seed=seed)
            # a d-tight member's dependence is certified by its small cut
            cert = v.certificate
            dep = cert.witness if cert.kind == CERT_DEPENDENT_CUT else None
            cutset = dep if dep is not None else small_cut(g, d)
            checks.append({
                "name": name,
                "ok": flex is True and v.rank_lb == g.m - 1 and cutset is not None,
                "flexibility_cut": sorted(cutset) if cutset is not None else None,
                "dependence_cut": sorted(dep) if dep is not None else None,
                **v.to_json(g),
            })
        kg = complete_bipartite(d + 2, d + 2)
        circ, v = is_circuit(kg, d, seed=seed)
        flex_want = d >= 4
        checks.append({
            "name": f"complete-bipartite-{d+2}-{d+2}-d{d}",
            "ok": circ is True and (v.flexible_circuit is True) == flex_want,
            **v.to_json(kg),
        })

    for (d, t), rank in expected_rank.items():
        g = build_glued_cliques(d, t).graph
        v = generic_rank(g, d, seed=seed)
        checks.append({
            "name": f"rank-glued-{d}-{t}",
            "ok": v.rank_lb == rank,
            "expected_rank": rank,
            **v.to_json(g),
        })
    return _finish("flexible-families", seed, checks, t0)


def classify_flexible_circuits(
    d: int,
    n_max: int,
    seed: Optional[int] = None,
    partition: tuple[int, int] = (0, 1),
) -> tuple[VerificationReport, list[str]]:
    """Exhaustive search for flexible circuits on up to n_max vertices.

    Enumerates the survivors of the necessary conditions (minimum degree
    d+1, hence at least n(d+1)/2 edges, and d-sparsity) and runs the full
    circuit test on each, in the labels the survivor stream gives it, which
    are fixed by the class but not canonical. Only a reported survivor, one
    whose flexible-circuit flag is not False, is canonized: its verdict is
    rerun on the canonical form with the same seed, and the report shows
    that graph and that verdict. Supported at d=3 and d=4. Returns the
    report plus the graph6 codes of all flexible circuits found. The report
    checks them against the named families on at most n_max vertices:
    equality for a full (unsharded) run, containment for a shard.

    Since the first verdict runs on non-canonical labels, a seed's report
    is not always the one that canonizing every survivor first would give:
    a survivor may be dropped as False where that would leave it
    unresolved, or the reverse, both within the Monte Carlo bound. The two
    agree byte for byte at the pinned runs (classify-d3 at the default
    seed, seeds 1 and 2, and shard 1/4; classify-d4 at the default seed
    and seed 7), not at every seed.
    """
    if d not in (3, 4):
        raise ValueError("exhaustive classification is scoped to d=3 and d=4")
    if n_max > d + 6:
        raise ValueError(f"classification covers at most d+6 = {d+6} vertices")
    seed = default_seed() if seed is None else seed
    t0 = time.perf_counter()
    checks: list[dict] = []
    found: list[str] = []
    survivors = 0
    # K_{d+2}, the one graph on d+2 vertices of min degree d+1, is not d-sparse
    for n in range(d + 3, n_max + 1):
        spec = SearchSpec(n=n, degree_min=d + 1, d_sparse_filter=d)
        for g in _survivors(spec, partition=partition):
            survivors += 1
            flex, v = is_flexible_circuit(g, d, seed=seed + survivors)
            if flex is not False:
                # reported, so canonized: the verdict is rerun on the
                # canonical form with the same seed, and that is the report
                g = canonical_form(g)
                _, v = is_circuit(g, d, seed=seed + survivors)
                flex = v.flexible_circuit
            if flex is None:
                checks.append({"name": f"unresolved-#{survivors}",
                               "ok": None, **v.to_json(g)})
            elif flex:
                found.append(g.to_graph6())
                checks.append({"name": f"flexible-circuit-#{len(found)}",
                               "ok": True, **v.to_json(g)})
    found.sort()
    checks.append({"name": "survivors-tested", "ok": True, "count": survivors})

    # a shard sees part of the stream, so it can only check containment
    expected = {canonical_code(g).decode("ascii")
                for _, g in _flexible_families(d) if g.n <= n_max}
    sharded = partition != (0, 1)
    checks.append({
        "name": "within-constructed-families" if sharded else "matches-constructed-families",
        "ok": set(found) <= expected if sharded else set(found) == expected,
        "found": found,
        "expected": sorted(expected),
    })
    return _finish(f"classify-d{d}", seed, checks, t0), found


def verify_edge_bound(
    d_max: int = 8,
    seed: Optional[int] = None,
    classification: Optional[list[str]] = None,
) -> VerificationReport:
    """|E(B_{d,d-1})| = d(d+9)/2 for each d, and no flexible circuit from the
    d=3 classification has fewer than 18 edges (equality only for B_{3,2},
    which the oracle confirms is a flexible circuit)."""
    if d_max < 3:
        raise ValueError("d_max must be >= 3")
    seed = default_seed() if seed is None else seed
    t0 = time.perf_counter()
    checks: list[dict] = []
    for d in range(3, d_max + 1):
        g = build_glued_cliques(d, d - 1).graph
        want = d * (d + 9) // 2
        checks.append({
            "name": f"edge-count-d{d}", "ok": g.m == want,
            "edges": g.m, "expected": want,
        })
    # the minimum is attained: B_{3,2} is a flexible circuit with 18 edges.
    # Checked with the oracle, so a wrong oracle fails this report even when
    # the classification it produced is empty or a shard's
    b32_graph = build_glued_cliques(3, 2).graph
    flex, v = is_flexible_circuit(b32_graph, 3, seed=seed)
    checks.append({
        "name": "minimum-attained-d3",
        "ok": flex is True and b32_graph.m == 18,
        **v.to_json(b32_graph),
    })
    if classification is None:
        _, classification = classify_flexible_circuits(3, 9, seed=seed)
    b32 = canonical_code(b32_graph).decode("ascii")
    edge_counts = {g6: Graph.from_graph6(g6).m for g6 in classification}
    checks.append({
        "name": "minimum-18-edges-d3",
        "ok": all(m >= 18 for m in edge_counts.values())
        and all(g6 == b32 for g6, m in edge_counts.items() if m == 18),
        "edge_counts": dict(sorted(edge_counts.items())),
    })
    return _finish("edge-bound", seed, checks, t0)


# --- randomized instance builders -------------------------------------------


def random_graph(rng: random.Random, n: int, p_edge: float) -> Graph:
    edges = tuple(
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p_edge
    )
    return Graph(n, edges)


def random_minimally_rigid(
    rng: random.Random, d: int, n: int, zero_only: bool = False
) -> Graph:
    """Grow K_{d+1} by random 0-/1-extensions; both preserve independence and
    the tight edge count, so the result is minimally rigid."""
    if n < d + 1:
        raise ValueError("need n >= d+1")
    g = complete_graph(d + 1)
    while g.n < n:
        if zero_only or rng.random() < 0.5:
            g = zero_extension(g, d, rng.sample(range(g.n), d))
        else:
            e = g.edges[rng.randrange(g.m)]
            others = [v for v in range(g.n) if v not in e]
            rng.shuffle(others)
            g = one_extension(g, d, list(e) + others[: d - 1], e)
    return g


def random_independent(rng: random.Random, d: int, n: int) -> Graph:
    g = random_minimally_rigid(rng, d, n)
    for _ in range(rng.randrange(0, max(g.m // 4, 1))):
        g = g.without_edge(*g.edges[rng.randrange(g.m)])
    return g


def _suite(name: str, instances: int, failures: list) -> dict:
    return {"name": name, "ok": not failures, "instances": instances,
            "failures": failures}


def verify_structure_suites(seed: Optional[int] = None) -> VerificationReport:
    """Property suites for the counting bound, field agreement, extension and
    split operations, coning, gluing, 2-sums, the rigid-union pattern, the
    degree-2/3 distance lemma, and t-sums."""
    seed = default_seed() if seed is None else seed
    t0 = time.perf_counter()
    # a suite's place in this order fixes its seed, and so its report
    suites = (_suite_count_bound, _suite_field_agreement, _suite_edge_deletion,
              _suite_cycle_matroid, _suite_circuit_rank_law, _suite_extensions,
              _suite_vertex_split, _suite_coning, _suite_gluing, _suite_two_sum,
              _suite_rigid_union, _suite_t_sum)
    checks: list[dict] = [suite(random.Random(seed + k))
                          for k, suite in enumerate(suites, start=1)]
    checks.append(_suite_deg23())

    return _finish("structure-suites", seed, checks, t0)


def _suite_count_bound(rng: random.Random) -> dict:
    # rank never exceeds min(|E|, d|V|-C(d+1,2)); more trials never lose rank
    failures = []
    for i in range(100):
        n = rng.randrange(4, 10)
        d = rng.randrange(1, 5)
        g = random_graph(rng, n, rng.uniform(0.2, 0.8))
        s = rng.getrandbits(32)
        v1 = generic_rank(g, d, trials=1, seed=s)
        v3 = generic_rank(g, d, trials=3, seed=s)
        ok = v1.rank_lb <= v1.count_ub and v3.rank_lb >= v1.rank_lb
        if g.n >= d + 2:
            ok = ok and v1.rank_lb <= rigidity_target(g, d)
        if not ok:
            failures.append({"i": i, "graph6": g.to_graph6(), "d": d})
    return _suite("count-bound-and-monotonicity", 100, failures)


def _suite_field_agreement(rng: random.Random) -> dict:
    from .linalg import rank_exact_int, rank_mod_p
    from .rigidity import random_realization, rigidity_matrix

    failures = []
    for i in range(30):
        n = rng.randrange(4, 9)
        d = rng.randrange(1, 5)
        g = random_graph(rng, n, rng.uniform(0.3, 0.8))
        s = rng.getrandbits(32)
        rows = rigidity_matrix(g, random_realization(g, d, s, field=None)).rows
        exact = rank_exact_int(rows)
        modular = rank_mod_p(rows)
        if exact != modular:
            failures.append({"i": i, "graph6": g.to_graph6(), "d": d,
                             "exact": exact, "modular": modular})
    return _suite("field-agreement", 30, failures)


def _suite_edge_deletion(rng: random.Random) -> dict:
    failures = []
    checked = 0
    for i in range(50):
        n = rng.randrange(4, 9)
        d = rng.randrange(1, 4)
        g = random_graph(rng, n, rng.uniform(0.3, 0.8))
        if g.m == 0:
            continue
        checked += 1
        r = generic_rank(g, d, seed=rng.getrandbits(32)).rank_lb
        for e in g.edges:
            re = generic_rank(g.without_edge(*e), d, seed=rng.getrandbits(32)).rank_lb
            if re not in (r - 1, r):
                failures.append({"i": i, "graph6": g.to_graph6(), "d": d, "edge": e})
                break
    return _suite("edge-deletion-monotonicity", checked, failures)


def _suite_cycle_matroid(rng: random.Random) -> dict:
    failures = []
    for i in range(50):
        n = rng.randrange(2, 11)
        g = random_graph(rng, n, rng.uniform(0.1, 0.6))
        want = n - len(g.components())
        got = generic_rank(g, 1, seed=rng.getrandbits(32)).rank_lb
        if got != want:
            failures.append({"i": i, "graph6": g.to_graph6(), "want": want, "got": got})
    return _suite("cycle-matroid-d1", 50, failures)


def _suite_circuit_rank_law(rng: random.Random) -> dict:
    pool = [
        (complete_graph(4), 2),
        (complete_graph(5), 3),
        (complete_graph(6), 4),
        (build_glued_cliques(3, 2).graph, 3),
        (build_glued_cliques(4, 2).graph, 4),
        (complete_bipartite(5, 5), 3),
    ]
    failures = []
    for g, d in pool:
        circ, v = is_circuit(g, d, seed=rng.getrandbits(32))
        ok = circ is True and v.rank_lb == g.m - 1
        # independent re-verification of every single-edge deletion
        for e in g.edges:
            sub, _ = is_independent(g.without_edge(*e), d, seed=rng.getrandbits(32))
            ok = ok and sub is True
        if not ok:
            failures.append({"graph6": g.to_graph6(), "d": d})
    return _suite("circuit-rank-law", len(pool), failures)


def _suite_extensions(rng: random.Random) -> dict:
    failures = []
    for i in range(30):
        d = rng.randrange(2, 5)
        g = random_independent(rng, d, rng.randrange(d + 2, d + 6))
        ind, _ = is_independent(g, d, seed=rng.getrandbits(32))
        g0 = zero_extension(g, d, rng.sample(range(g.n), d))
        ok0, _ = is_independent(g0, d, seed=rng.getrandbits(32))
        ok = ind is True and ok0 is True
        ok = ok and g0.n == g.n + 1 and g0.m == g.m + d
        if g.m:
            e = g.edges[rng.randrange(g.m)]
            others = [v for v in range(g.n) if v not in e]
            rng.shuffle(others)
            g1 = one_extension(g, d, list(e) + others[: d - 1], e)
            ok1, _ = is_independent(g1, d, seed=rng.getrandbits(32))
            ok = ok and ok1 is True and g1.n == g.n + 1 and g1.m == g.m + d
            ok = ok and g1.degrees[g1.n - 1] == d + 1
        if not ok:
            failures.append({"i": i, "graph6": g.to_graph6(), "d": d})
    return _suite("extension-independence", 30, failures)


def _suite_vertex_split(rng: random.Random) -> dict:
    failures = []
    done = 0
    while done < 30:
        d = rng.randrange(2, 5)
        g = random_independent(rng, d, rng.randrange(d + 2, d + 6))
        vs = [v for v in range(g.n) if g.degrees[v] >= d - 1]
        if not vs:
            continue
        done += 1
        v = rng.choice(vs)
        nv = list(g.neighbors(v))
        rng.shuffle(nv)
        hinge = nv[: d - 1]
        rest = nv[d - 1:]
        part1 = [x for x in rest if rng.random() < 0.5]
        g2 = vertex_split(g, d, v, hinge, part1)
        ok, _ = is_independent(g2, d, seed=rng.getrandbits(32))
        ok = ok is True and g2.n == g.n + 1 and g2.m == g.m + d
        if not ok:
            failures.append({"graph6": g.to_graph6(), "d": d, "v": v,
                             "hinge": hinge, "part1": part1})
    return _suite("vertex-split-independence", 30, failures)


def _suite_coning(rng: random.Random) -> dict:
    failures = []
    for i in range(30):
        d = rng.randrange(1, 4)
        g = random_independent(rng, d, rng.randrange(d + 2, d + 7))
        gc = cone(g)
        ok, _ = is_independent(gc, d + 1, seed=rng.getrandbits(32))
        ok = ok is True and gc.m == g.m + g.n
        if not ok:
            failures.append({"i": i, "graph6": g.to_graph6(), "d": d})
    # converse spot check: coning a dependent graph stays dependent
    dep, _ = is_independent(cone(complete_graph(5)), 4, seed=rng.getrandbits(32))
    if dep is not False:
        failures.append({"converse": "cone(K5) at d=4 should be dependent"})
    return _suite("coning-independence", 31, failures)


def _suite_gluing(rng: random.Random) -> dict:
    failures = []
    # rigid union: two rigid graphs sharing >= d vertices
    for i in range(10):
        d = rng.randrange(2, 5)
        a = random_minimally_rigid(rng, d, rng.randrange(d + 2, d + 5))
        b = random_minimally_rigid(rng, d, rng.randrange(d + 2, d + 5))
        shared = rng.sample(range(a.n), d)
        g = _glue(a, b, shared)
        ok, _ = is_rigid(g, d, seed=rng.getrandbits(32))
        if ok is not True:
            failures.append({"i": i, "glue": "rigid-union", "d": d})
    # independent union over a rigid (complete) intersection
    for i in range(10):
        d = rng.randrange(2, 5)
        a = random_minimally_rigid(rng, d, rng.randrange(d + 2, d + 5), zero_only=True)
        b = random_minimally_rigid(rng, d, rng.randrange(d + 2, d + 5), zero_only=True)
        g = _glue(a, b, list(range(d + 1)))  # both contain K_{d+1} on 0..d
        ok, _ = is_independent(g, d, seed=rng.getrandbits(32))
        if ok is not True:
            failures.append({"i": i, "glue": "independent-union", "d": d})
    # cut certificates
    for d in range(3, 7):
        g = build_glued_cliques(d, d - 1).graph
        cut = dependent_by_cut(g, d)
        if cut is None or len(cut) != d - 1:
            failures.append({"cut": f"glued-cliques-{d}-{d-1}"})
        if dependent_by_cut(complete_graph(d + 3), d) is not None:
            failures.append({"cut": f"complete-{d+3}"})
    for c in enumerate_glued_cliques_plus(3):
        cut = dependent_by_cut(c.graph, 3)
        if cut is None or len(cut) != 2:
            failures.append({"cut": "glued-cliques-plus-3"})
    return _suite("gluing", 27, failures)


def _glue(a: Graph, b: Graph, shared: list[int]) -> Graph:
    """Union of a and b after mapping b's first len(shared) vertices onto the
    given vertices of a and the rest onto fresh labels."""
    mapping = {i: s for i, s in enumerate(shared)}
    nxt = a.n
    for v in range(b.n):
        if v not in mapping:
            mapping[v] = nxt
            nxt += 1
    edges = set(a.edges)
    edges |= {
        (min(mapping[u], mapping[v]), max(mapping[u], mapping[v])) for u, v in b.edges
    }
    return Graph(nxt, tuple(edges))


def _circuit_pool(d: int) -> list[Graph]:
    pool = [complete_graph(d + 2)]
    pool.append(build_glued_cliques(d, d - 1).graph)
    if d >= 4:
        pool.append(build_glued_cliques(d, d - 2).graph)
    if d == 3:
        pool.append(complete_bipartite(5, 5))
    return pool


def _relabel_edge_to_01(g: Graph, rng: random.Random) -> Graph:
    """Relabel so a random edge of g becomes (0, 1)."""
    e = g.edges[rng.randrange(g.m)]
    order = list(range(g.n))  # position -> vertex
    order[e[0]], order[0] = order[0], order[e[0]]
    src1 = order.index(e[1])
    order[src1], order[1] = order[1], order[src1]
    perm = [0] * g.n  # vertex -> position
    for pos, v in enumerate(order):
        perm[v] = pos
    return g.relabel(perm)


def _suite_two_sum(rng: random.Random) -> dict:
    failures = []
    # the canonical instance: gluing two K_5 copies gives the d=3 base family
    ts = two_sum(complete_graph(5), complete_graph(5), 3, 4).graph
    if canonical_code(ts) != canonical_code(build_glued_cliques(3, 2).graph):
        failures.append({"case": "k5-k5-base-family"})
    for i in range(20):
        d = rng.choice([3, 4])
        a = _relabel_edge_to_01(rng.choice(_circuit_pool(d)), rng)
        b = _relabel_edge_to_01(rng.choice(_circuit_pool(d)), rng)
        g = two_sum(a, b, 0, 1).graph
        ok, _ = is_circuit(g, d, seed=rng.getrandbits(32))
        if ok is not True:
            failures.append({"i": i, "case": "circuit-pair", "d": d})
    for i in range(20):
        d = rng.choice([3, 4])
        a = _relabel_edge_to_01(rng.choice(_circuit_pool(d)), rng)
        ind = random_minimally_rigid(rng, d, rng.randrange(d + 2, d + 5))
        b = _relabel_edge_to_01(ind, rng)
        if rng.random() < 0.5:
            a, b = b, a
        g = two_sum(a, b, 0, 1).graph
        ok, _ = is_circuit(g, d, seed=rng.getrandbits(32))
        if ok is not False:
            failures.append({"i": i, "case": "independent-summand", "d": d})
    return _suite("two-sum-circuits", 41, failures)


def _suite_rigid_union(rng: random.Random) -> dict:
    # a triangle whose vertices each take d-1 neighbors in a minimally rigid
    # base, jointly covering >= d base vertices, keeps minimal rigidity
    failures = []
    for i in range(20):
        d = rng.choice([3, 4])
        base = random_minimally_rigid(rng, d, rng.randrange(max(d + 1, 4), d + 5))
        while True:
            sets = [rng.sample(range(base.n), d - 1) for _ in range(3)]
            if len({v for s in sets for v in s}) >= d:
                break
        x, y, z = base.n, base.n + 1, base.n + 2
        edges = list(base.edges) + [(x, y), (x, z), (y, z)]
        for new_v, s in zip((x, y, z), sets):
            edges += [(u, new_v) for u in s]
        g = Graph(base.n + 3, tuple(edges))
        rig, vr = is_rigid(g, d, seed=rng.getrandbits(32))
        ind, vi = is_independent(g, d, seed=rng.getrandbits(32))
        if not (rig is True and ind is True):
            failures.append({"i": i, "graph6": g.to_graph6(), "d": d})
    return _suite("rigid-union-triangle", 20, failures)


def _suite_t_sum(rng: random.Random) -> dict:
    failures = []
    checked = 0
    # both summands circuits: a unique contained circuit covers all
    # non-shared edges (d=3)
    b32 = build_glued_cliques(3, 2).graph
    for a, b, t in [
        (complete_graph(5), complete_graph(5), 2),
        (complete_graph(5), complete_graph(5), 3),
        (complete_graph(5), complete_graph(5), 4),
        (b32, complete_graph(5), 3),
        (b32, complete_graph(5), 4),
    ]:
        checked += 1
        shared = tuple(range(t))
        c = t_sum(a, b, shared, (0, 1))
        g = c.graph
        v = generic_rank(g, 3, seed=rng.getrandbits(32))
        ok = v.rank_lb == g.m - 1
        circuit_edges = frozenset(
            e for e in g.edges
            if is_independent(g.without_edge(*e), 3, seed=rng.getrandbits(32))[0]
        )
        sup = stress_support(g, 3, seed=rng.getrandbits(32))
        shared_present = {
            (min(u, v2), max(u, v2))
            for u in shared for v2 in shared if u < v2 and g.has_edge(u, v2)
        }
        nonshared = frozenset(g.edges) - shared_present
        ok = ok and nonshared <= circuit_edges and sup == circuit_edges
        sub = Graph(g.n, tuple(circuit_edges))
        circ, _ = is_circuit(sub, 3, seed=rng.getrandbits(32))
        ok = ok and circ is True
        if not ok:
            failures.append({"case": f"t{t}-circuit-pair", "graph6": g.to_graph6()})
    # circuit implication over every t-sum of small cliques: whenever the
    # sum is a circuit, both summands must be (only K_5 is a circuit here)
    cliques = [complete_graph(k) for k in (4, 5, 6)]
    for a in cliques:
        for b in cliques:
            for t in (2, 3, 4):
                if t >= min(a.n, b.n):
                    continue
                checked += 1
                c = t_sum(a, b, tuple(range(t)), (0, 1))
                circ, _ = is_circuit(c.graph, 3, seed=rng.getrandbits(32))
                summands_circuits = a.n == 5 and b.n == 5
                if circ is True and not summands_circuits:
                    failures.append({"case": f"K{a.n}+K{b.n}-t{t}"})
                if circ is None:
                    failures.append({"case": f"K{a.n}+K{b.n}-t{t}-unresolved"})
    # and one non-clique independent summand
    checked += 1
    c = t_sum(complete_graph(5), complete_graph(5).without_edge(2, 3), (0, 1, 4), (0, 1))
    circ, _ = is_circuit(c.graph, 3, seed=rng.getrandbits(32))
    if circ is not False:
        failures.append({"case": "k5-minus-edge-summand"})
    return _suite("t-sum-unique-circuit", checked, failures)


def _suite_deg23() -> dict:
    # every graph on 11 or 12 vertices with degrees in {2,3}, min 2 and max 3,
    # admits a degree-2 / degree-3 pair at distance >= 3
    failures = []
    total = 0
    for n in (11, 12):
        spec = SearchSpec(n=n, degree_min=2, degree_max=3)
        for g in enumerate_constrained(spec):
            if min(g.degrees) != 2 or max(g.degrees) != 3:
                continue
            total += 1
            w = find_deg23_witness(g)
            ok = w is not None
            if ok:
                x, y = w
                ok = (g.degrees[x] == 2 and g.degrees[y] == 3)
                dist = distance(g, x, y)
                ok = ok and (dist is None or dist >= 3)
            if not ok:
                failures.append({"n": n, "graph6": g.to_graph6()})
    return _suite("degree-2-3-distance", total, failures)


# claim name -> runner(seed, partition); `run_all` runs every claim but
# classify-d4
CLAIMS: dict[str, Callable[[Optional[int], tuple[int, int]], VerificationReport]] = {
    "regular-independence-i":
        lambda seed, part: verify_regular_independence(1, seed=seed, partition=part),
    "regular-independence-ii":
        lambda seed, part: verify_regular_independence(2, seed=seed, partition=part),
    "flexible-families": lambda seed, part: verify_families(5, seed=seed),
    "classify-d3":
        lambda seed, part: classify_flexible_circuits(3, 9, seed=seed, partition=part)[0],
    "classify-d4":
        lambda seed, part: classify_flexible_circuits(4, 10, seed=seed, partition=part)[0],
    "edge-bound": lambda seed, part: verify_edge_bound(8, seed=seed),
    "structure-suites": lambda seed, part: verify_structure_suites(seed=seed),
}


# the claims whose runners split their work by the partition; the rest
# run whole
SHARDED = ("regular-independence-i", "regular-independence-ii",
           "classify-d3", "classify-d4")


def run_all(seed: Optional[int] = None) -> list[VerificationReport]:
    """Run every claim whole; the classification output feeds the edge bound."""
    seed = default_seed() if seed is None else seed
    reports = [
        verify_regular_independence(1, seed=seed),
        verify_regular_independence(2, seed=seed),
        verify_families(5, seed=seed),
    ]
    cls_report, found = classify_flexible_circuits(3, 9, seed=seed)
    reports.append(cls_report)
    reports.append(verify_edge_bound(8, seed=seed, classification=found))
    reports.append(verify_structure_suites(seed=seed))
    return reports
