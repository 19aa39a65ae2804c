import itertools
import random
from collections import Counter

import pytest
import sympy

from rigikit import (
    Graph,
    Realization,
    complete_bipartite,
    complete_graph,
    cone,
    cycle_graph,
    dependent_by_cut,
    generic_rank,
    is_circuit,
    is_d_sparse,
    is_flexible_circuit,
    is_independent,
    one_extension,
    random_realization,
    rank_rational,
    rigidity_matrix,
    rigidity_target,
    small_cut,
    stress_support,
)
from rigikit.constructions import build_glued_cliques, enumerate_glued_cliques_plus
from rigikit.linalg import DEFAULT_PRIME
from rigikit.rigidity import (
    _SMALL_PRIME,
    CERT_DEPENDENT_COUNT,
    CERT_DEPENDENT_CUT,
    CERT_INDEPENDENT,
    CERT_MONTE_CARLO,
    Certificate,
    _core,
    count_upper_bound,
)

Q, P = _SMALL_PRIME, DEFAULT_PRIME


def B(d, t):
    return build_glued_cliques(d, t).graph


class TestRealization:
    def test_deterministic(self):
        g = complete_graph(4)
        assert random_realization(g, 3, seed=9) == random_realization(g, 3, seed=9)
        assert random_realization(g, 3, seed=9) != random_realization(g, 3, seed=10)

    def test_shapes(self):
        r = random_realization(complete_graph(8), 3, seed=0)
        assert len(r.coords) == 8 and all(len(c) == 3 for c in r.coords)

    @pytest.mark.parametrize("field", [1, 2, 5, Q, P, 2**89 - 1, None])
    def test_coordinates_are_the_randrange_stream(self, field):
        # vertex by vertex, the coordinates random.Random(seed).randrange
        # gives; small spans reject most draws, so a batch often falls short
        rng = random.Random(field)
        span = P if field is None else field
        for _ in range(60):
            n, d, seed = rng.randrange(12), rng.randrange(1, 8), rng.getrandbits(63)
            ref = random.Random(seed)
            want = tuple(tuple(ref.randrange(span) for _ in range(d)) for _ in range(n))
            assert random_realization(Graph(n), d, seed, field=field).coords == want

    def test_bad_coords_rejected(self):
        with pytest.raises(ValueError):
            Realization(d=2, coords=((1,),))


class TestRigidityMatrix:
    def test_k2_single_row(self):
        g = complete_graph(2)
        r = Realization(d=2, coords=((0, 0), (1, 0)), field=None)
        m = rigidity_matrix(g, r)
        assert m.rows == ((-1, 0, 1, 0),)

    def test_constant_realization_zero_matrix(self):
        g = cycle_graph(4)
        r = Realization(d=2, coords=((3, 7),) * 4, field=None)
        assert all(all(x == 0 for x in row) for row in rigidity_matrix(g, r).rows)

    def test_dimensions_glued_32(self):
        g = B(3, 2)
        m = rigidity_matrix(g, random_realization(g, 3, seed=1))
        assert len(m.rows) == 18 and len(m.rows[0]) == 24

    def test_blocks_are_negatives(self):
        g = complete_graph(5)
        d = 3
        for p in (32749, DEFAULT_PRIME):
            r = random_realization(g, d, seed=2, field=p)
            m = rigidity_matrix(g, r)
            assert m.field == p
            for (u, v), row in zip(g.edges, m.rows):
                bu = row[d * u: d * u + d]
                bv = row[d * v: d * v + d]
                diffs = [(a - b) % p for a, b in zip(r.coords[u], r.coords[v])]
                assert [x % p for x in bu] == diffs
                assert bv == tuple(-x for x in bu)
                others = set(range(g.n)) - {u, v}
                for w in others:
                    assert all(x == 0 for x in row[d * w: d * w + d])

    def test_coverage_mismatch_rejected(self):
        g = complete_graph(3)
        r = random_realization(complete_graph(4), 2, seed=0)
        with pytest.raises(ValueError):
            rigidity_matrix(g, r)


class TestFrozenRanks:
    def test_k2_d3(self):
        assert generic_rank(complete_graph(2), 3).rank_lb == 1

    def test_k5_d3_circuit_rigid(self):
        c, v = is_circuit(complete_graph(5), 3)
        assert c is True and v.rank_lb == 9 and v.rigid is True
        assert v.certificate.kind == CERT_DEPENDENT_COUNT

    def test_triangle_d1(self):
        assert generic_rank(complete_graph(3), 1).rank_lb == 2

    def test_k66_d4_flexible_circuit(self):
        g = complete_bipartite(6, 6)
        f, v = is_flexible_circuit(g, 4)
        assert f is True and v.rank_lb == 35
        assert v.count_ub == 36  # min(|E|, 4*12-10)
        assert rigidity_target(g, 4) == 38 > v.rank_lb

    def test_k55_d3_rigid_circuit(self):
        f, v = is_flexible_circuit(complete_bipartite(5, 5), 3)
        assert f is False and v.circuit is True and v.rigid is True
        assert v.rank_lb == 24

    def test_k4_d2_rigid_dependent(self):
        v = generic_rank(complete_graph(4), 2)
        assert v.rank_lb == 5 and v.rigid is True and v.independent is False
        assert rank_rational(complete_graph(4), 2, seed=3) == 5

    def test_kd2_each_d(self):
        for d in range(1, 5):
            c, v = is_circuit(complete_graph(d + 2), d)
            assert c is True and v.rigid is True
            assert v.rank_lb == rigidity_target(complete_graph(d + 2), d)
            assert v.rank_lb == complete_graph(d + 2).m - 1

    def test_family_ranks(self):
        for (d, t), (rank, flex) in {
            (3, 2): (17, True), (4, 3): (25, True), (4, 2): (27, True),
        }.items():
            f, v = is_flexible_circuit(B(d, t), d)
            assert f is flex and v.rank_lb == rank


class TestCertificates:
    def test_independent_certificate(self):
        ok, v = is_independent(complete_graph(6).without_edge(0, 1), 4, trials=1)
        assert ok is True and v.certificate.kind == CERT_INDEPENDENT
        assert v.rank_lb == v.count_ub == complete_graph(6).m - 1

    def test_count_certificate(self):
        v = generic_rank(complete_graph(6), 3)
        assert v.certificate.kind == CERT_DEPENDENT_COUNT
        assert v.certificate.witness is not None

    def test_cut_certificate(self):
        v = generic_rank(B(3, 2), 3)
        assert v.certificate.kind == CERT_DEPENDENT_CUT
        assert v.certificate.witness == frozenset({3, 4})

    def test_monte_carlo_bound_invariant(self):
        g = B(4, 2)  # dependent, sparse, no tight cut: Monte Carlo territory
        v = generic_rank(g, 4)
        assert v.certificate.kind == CERT_MONTE_CARLO
        assert v.certificate.failure_bound <= (4 * g.n / DEFAULT_PRIME) ** v.trials
        assert v.rank_lb <= v.count_ub

    def test_unresolved_fails_closed(self):
        c, v = is_circuit(B(4, 2), 4, trials=1, threshold=0.0)
        assert c is None
        assert v.independent is None

    def test_rigid_witness_is_deterministic_even_dependent(self):
        v = generic_rank(complete_graph(7), 3, trials=1)
        assert v.rigid is True and v.independent is False

    def test_small_graphs_rigid_exactly_when_complete(self):
        # on n <= d+1 vertices the count d|V| - C(d+1,2) can fall below
        # C(n,2), so meeting it does not make an incomplete graph rigid
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = Graph(n, tuple(e for i, e in enumerate(pairs) if mask >> i & 1))
                for d in range(max(n - 1, 1), 6):
                    v = generic_rank(g, d)
                    assert v.rigid is (g.m == len(pairs)), (g.to_graph6(), d)


class TestSparsity:
    def test_kd2_not_sparse(self):
        for d in (2, 3, 4):
            rep = is_d_sparse(complete_graph(d + 2), d)
            assert not rep.sparse
            assert rep.violator == frozenset(range(d + 2))

    def test_glued_32_tight(self):
        rep = is_d_sparse(B(3, 2), 3)
        assert rep.sparse and rep.tight

    def test_plus_family_tight(self):
        for d in (3, 4):
            for c in enumerate_glued_cliques_plus(d):
                assert is_d_sparse(c.graph, d).tight

    def test_violator_is_worst(self):
        # K5 plus a pendant: the violator is the K5, not the whole graph
        g = Graph(6, tuple(itertools.combinations(range(5), 2)) + ((4, 5),))
        rep = is_d_sparse(g, 3)
        assert rep.violator == frozenset(range(5))
        assert rep.excess == 1

    def test_sparse_but_not_tight(self):
        rep = is_d_sparse(B(4, 2), 4)
        assert rep.sparse and not rep.tight


class TestCuts:
    def test_glued_family_cut(self):
        for d in range(3, 7):
            got = dependent_by_cut(B(d, d - 1), d)
            assert got is not None and len(got) == d - 1

    def test_complete_graphs_have_no_cut(self):
        for d in (3, 4):
            assert dependent_by_cut(complete_graph(d + 3), d) is None

    def test_plus_members_cut(self):
        for c in enumerate_glued_cliques_plus(3):
            assert dependent_by_cut(c.graph, 3) == frozenset({4, 5})

    def test_precondition(self):
        with pytest.raises(ValueError):
            dependent_by_cut(complete_graph(4), 3)

    def test_non_tight_graph_gives_none(self):
        assert dependent_by_cut(B(4, 2), 4) is None
        assert small_cut(B(4, 2), 4) is not None  # flexibility cut still exists

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("d", [1, 3])
    def test_too_small_graph_has_no_cut(self, n, d):
        assert small_cut(Graph(n), d) is None


class TestCircuitFallbacks:
    def test_circuit_plus_pendant_is_not_circuit(self):
        # nullity one but a zero stress entry: the per-edge fallback decides
        g = Graph(6, tuple(itertools.combinations(range(5), 2)) + ((4, 5),))
        c, v = is_circuit(g, 3)
        assert c is False

    def test_two_disjoint_circuits_not_circuit(self):
        # rank deficiency two: no single deletion can restore independence
        k5 = tuple(itertools.combinations(range(5), 2))
        shifted = tuple((u + 5, v + 5) for u, v in k5)
        g = Graph(10, k5 + shifted)
        c, v = is_circuit(g, 3)
        assert c is False
        assert v.rank_lb == 18

    def test_double_violation_is_deterministic(self):
        # K6 exceeds the bound by 3, so minimality fails deterministically
        c, v = is_circuit(complete_graph(6), 3)
        assert c is False


class TestWorkPerVerdict:
    """Each structural fact once per (graph, d) and each point eliminated
    once within a verdict; an independent graph costs one plain rank."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """(name, prime) per call; the prime is None for the facts."""
        import rigikit.rigidity as rigidity

        seen = []
        for name in ("is_d_sparse", "small_cut", "rank_mod_p", "rank_and_left_null_mod_p"):
            def counted(*args, _name=name, _fn=getattr(rigidity, name), **kwargs):
                # the oracle passes an elimination its prime as the second argument
                prime = args[1] if _name.startswith("rank") else None
                seen.append((_name, prime))
                return _fn(*args, **kwargs)
            monkeypatch.setattr(rigidity, name, counted)
        return seen

    def test_glued_family_facts_once(self, calls):
        # B_{d,d-1} has a nowhere-zero stress at its point, so the
        # null-vector rule proves it d-tight with no sparsity search; the cut
        # that then proves dependence is searched once
        for d in (3, 4, 5):
            calls.clear()
            flex, v = is_flexible_circuit(B(d, d - 1), d)
            assert flex is True and v.certificate.kind == CERT_DEPENDENT_CUT
            assert calls.count(("is_d_sparse", None)) == 0
            assert calls.count(("small_cut", None)) == 1

    @pytest.mark.parametrize("g", [B(4, 2), complete_bipartite(6, 6)],
                             ids=["B42", "K66"])
    def test_circuit_flexibility_from_count(self, calls, g):
        # neither graph is d-tight, so no rule asks for a small cut
        flex, v = is_flexible_circuit(g, 4)
        assert flex is True and v.rank_lb == g.m - 1
        assert calls.count(("small_cut", None)) == 0

    @pytest.mark.parametrize("g, d, schedule", [
        (complete_graph(5).without_edge(0, 1), 3, {("rank_mod_p", Q): 1}),
        (complete_graph(5), 3, {("rank_and_left_null_mod_p", Q): 1}),
        # rank 35 of 36 at every point: the small prime cannot settle it
        (complete_bipartite(6, 6), 4, {("rank_mod_p", Q): 1, ("rank_mod_p", P): 1,
                                       ("rank_and_left_null_mod_p", P): 1}),
    ], ids=["independent", "edges-above-count-bound", "edges-at-count-bound"])
    def test_elimination_schedule(self, calls, g, d, schedule):
        is_flexible_circuit(g, d)
        assert Counter(c for c in calls if c[1] is not None) == schedule

    def test_deletion_settled_by_sparsity(self, calls):
        # K_5 on 1..5 and a vertex 0 of degree 3: the stress misses vertex 0's
        # edges, so the per-edge fallback runs, and deleting (0, 3) leaves the
        # K_5, a sparsity violator. The rank 12 < |E| meets the count, so the
        # rank rule gives G's report (violator V) with no search
        g = Graph(6, tuple(itertools.combinations(range(1, 6), 2)) + ((0, 3), (0, 4), (0, 5)))
        flex, v = is_flexible_circuit(g, 3)
        assert [c for c in calls if c[1] is not None] == [("rank_and_left_null_mod_p", Q)]
        assert calls.count(("small_cut", None)) == 0
        assert calls.count(("is_d_sparse", None)) == 0  # 0 lies outside the 4-core
        assert flex is False and v.to_json() == {
            "d": 3, "rank_lb": 12, "count_ub": 12, "trials": 1, "primes": [Q],
            "certificate": {"kind": CERT_DEPENDENT_COUNT, "witness": [0, 1, 2, 3, 4, 5]},
            "flags": {"independent": False, "rigid": True, "circuit": False,
                      "flexible_circuit": False},
        }

    def test_deletion_outside_the_core_needs_no_sweep(self, calls):
        # built like oracle-mix's dependent graphs: K_4 on 1..4 grown by
        # 0-extensions to a minimally rigid graph on 1..7, the edge (3, 7)
        # added, and a vertex 0 of degree 3 joined to the highest labels. The
        # rank rule gives G's sparsity report from its point, and the first
        # deletion, (0, 5), has an end outside the 4-core, so that report
        # settles it: no sweep and one elimination in all
        g = Graph(8, tuple(itertools.combinations(range(1, 5), 2)) + (
            (1, 5), (2, 5), (3, 5), (2, 6), (4, 6), (5, 6), (1, 7), (5, 7), (6, 7),
            (3, 7), (0, 5), (0, 6), (0, 7)))
        flex, v = is_flexible_circuit(g, 3)
        assert [c for c in calls if c[1] is not None] == [("rank_and_left_null_mod_p", Q)]
        assert calls.count(("is_d_sparse", None)) == 0
        assert calls.count(("small_cut", None)) == 0
        assert flex is False and v.to_json() == {
            "d": 3, "rank_lb": 18, "count_ub": 18, "trials": 1, "primes": [Q],
            "certificate": {"kind": CERT_DEPENDENT_COUNT, "witness": list(range(8))},
            "flags": {"independent": False, "rigid": True, "circuit": False,
                      "flexible_circuit": False},
        }

    def test_core_beyond_d_plus_6_needs_no_sweep(self, calls):
        # K_6 grown by 1-extensions to 13 vertices, each on the last edge and
        # the four highest other labels, plus one edge: minimally rigid plus
        # one at d=5, its whole vertex set its 6-core, which is more than d+6
        # vertices, so a search would sweep all 2^13 subsets. The rank meets
        # the count below |E|, and the rank rule gives the report
        d = 5
        g = complete_graph(d + 1)
        while g.n < 13:
            e = g.edges[-1]
            others = [w for w in range(g.n) if w not in e][-(d - 1):]
            g = one_extension(g, d, list(e) + others, e)
        g = g.with_edge(0, 7)
        assert _core(g.adj, d + 1).bit_count() == 13 and g.m == rigidity_target(g, d) + 1
        flex, v = is_flexible_circuit(g, d)
        assert calls.count(("is_d_sparse", None)) == 0
        assert flex is False and v.rank_lb == g.m - 1
        assert v.certificate == Certificate(CERT_DEPENDENT_COUNT, witness=frozenset(range(13)))

    def test_cone_ladder_needs_no_sweep(self, calls):
        # K_{6,6} and its cones at d=4..7 are flexible circuits: a nowhere-zero
        # stress settles their sparsity (sparse, not tight) with no search
        g = complete_bipartite(6, 6)
        for d in range(4, 8):
            calls.clear()
            flex, v = is_flexible_circuit(g, d)
            assert flex is True
            assert calls.count(("is_d_sparse", None)) == 0
            assert calls.count(("small_cut", None)) == 0
            g = cone(g)


class TestStressSupport:
    def test_k5_fully_supported(self):
        sup = stress_support(complete_graph(5), 3, seed=1)
        assert sup == frozenset(complete_graph(5).edges)

    def test_independent_graph_has_no_stress(self):
        assert stress_support(complete_graph(5).without_edge(0, 1), 3, seed=1) is None

    def test_circuit_plus_coloop(self):
        # K5 with a pendant edge: stress lives on the K5 only
        g = Graph(6, tuple(itertools.combinations(range(5), 2)) + ((4, 5),))
        sup = stress_support(g, 3, seed=1)
        assert sup == frozenset(complete_graph(5).edges)


class TestProperties:
    def test_specialization_monotonicity(self, rng):
        for _ in range(40):
            n = rng.randrange(3, 9)
            d = rng.randrange(1, 5)
            es = tuple(e for e in itertools.combinations(range(n), 2)
                       if rng.random() < 0.5)
            g = Graph(n, es)
            s = rng.getrandbits(32)
            v1 = generic_rank(g, d, trials=1, seed=s)
            v3 = generic_rank(g, d, trials=3, seed=s)
            assert v1.rank_lb <= v1.count_ub == count_upper_bound(g, d)
            assert v3.rank_lb >= v1.rank_lb

    def test_field_agreement_with_sympy(self, rng):
        for _ in range(8):
            n = rng.randrange(4, 8)
            d = rng.randrange(1, 4)
            es = tuple(e for e in itertools.combinations(range(n), 2)
                       if rng.random() < 0.6)
            g = Graph(n, es)
            if not g.m:
                continue
            s = rng.getrandbits(32)
            r = random_realization(g, d, s, field=None)
            rows = [list(row) for row in rigidity_matrix(g, r).rows]
            assert rank_rational(g, d, seed=s) == sympy.Matrix(rows).rank()

    def test_small_prime_fallback_matches_default_prime(self, rng, monkeypatch):
        # with the small prime at 5 most first points fall short there and the
        # verdict falls back to the default prime; a run whose small prime is
        # not below the default prime never takes the small-prime pass
        import rigikit.rigidity as rigidity

        suite = [(B(3, 2), 3), (B(4, 2), 4), (B(4, 3), 4), (complete_graph(5), 3),
                 (complete_bipartite(6, 6), 4), (complete_bipartite(5, 5), 3),
                 (Graph(6, tuple(itertools.combinations(range(5), 2)) + ((4, 5),)), 3)]
        for _ in range(60):
            n = rng.randrange(3, 10)
            es = tuple(e for e in itertools.combinations(range(n), 2)
                       if rng.random() < rng.choice((0.4, 0.7)))
            suite.append((Graph(n, es), rng.randrange(1, 5)))
        seeds = [rng.getrandbits(32) for _ in suite]

        def verdicts(small_prime):
            monkeypatch.setattr(rigidity, "_SMALL_PRIME", small_prime)
            out = []
            for (g, d), s in zip(suite, seeds):
                out += [generic_rank(g, d, seed=s), is_circuit(g, d, seed=s)[1]]
            return out

        ref, got = verdicts(DEFAULT_PRIME), verdicts(5)
        assert {v.field_primes for v in ref} == {(P,)}
        assert {v.field_primes for v in got} == {(5,), (P,)}
        for a, b in zip(got, ref):
            assert a.flags() == b.flags() and a.rank_lb == b.rank_lb
            assert a.certificate.kind == b.certificate.kind
            assert a.certificate.failure_bound == b.certificate.failure_bound

    def test_deletion_outside_the_core_keeps_a_violator(self, rng):
        # G not d-sparse: the per-edge fallback of is_circuit takes G - e as
        # dependent, unswept, exactly when e has an end outside the
        # (d+1)-core, and each such G - e is indeed not d-sparse
        from rigikit.rigidity import _Facts

        def core(g, k):  # reference peel, one round at a time
            alive = set(range(g.n))
            while low := {v for v in alive if len(alive.intersection(g.neighbors(v))) < k}:
                alive -= low
            return alive

        outside = inside = 0
        while outside < 300 or inside < 300:
            d = rng.randrange(1, 5)
            k = rng.randrange(d + 2, d + 6)  # a dense part, then sparser vertices
            es = [e for e in itertools.combinations(range(k), 2) if rng.random() < 0.85]
            n = k + rng.randrange(1, 6)
            for v in range(k, n):
                es += [(u, v) for u in rng.sample(range(v), min(v, rng.randrange(1, d + 3)))]
            g = Graph(n, tuple(es))
            facts = _Facts(g, d)
            if facts.sparsity.sparse:
                continue
            c = core(g, d + 1)
            for u, v in g.edges:
                skipped = facts.keeps_violator(u, v)
                assert skipped is not (u in c and v in c), (g.to_graph6(), d, (u, v))
                if skipped:
                    assert not is_d_sparse(g.without_edge(u, v), d).sparse
                    outside += 1
                else:
                    inside += 1

    def test_cycle_matroid_d1(self, rng):
        for _ in range(30):
            n = rng.randrange(2, 10)
            es = tuple(e for e in itertools.combinations(range(n), 2)
                       if rng.random() < 0.3)
            g = Graph(n, es)
            assert generic_rank(g, 1).rank_lb == n - len(g.components())

    def test_edge_deletion_monotone(self, rng):
        for _ in range(20):
            n = rng.randrange(4, 8)
            es = tuple(e for e in itertools.combinations(range(n), 2)
                       if rng.random() < 0.6)
            g = Graph(n, es)
            if not g.m:
                continue
            r = generic_rank(g, 2).rank_lb
            e = g.edges[rng.randrange(g.m)]
            assert generic_rank(g.without_edge(*e), 2).rank_lb in (r - 1, r)
