"""`is_d_sparse` against the exhaustive subset sweep it replaced, and the
reports a verdict's points settle against `is_d_sparse`."""

import itertools
import json
import math
import random
from collections import Counter

import pytest

from rigikit import (
    Graph,
    SearchSpec,
    SparsityReport,
    complement,
    complete_bipartite,
    complete_graph,
    cone,
    enumerate_constrained,
    generic_rank,
    is_circuit,
    is_d_sparse,
    one_extension,
    rigidity_target,
    zero_extension,
)
from rigikit.constructions import build_glued_cliques, enumerate_glued_cliques_plus
import rigikit.rigidity as rigidity
from rigikit.linalg import DEFAULT_PRIME
from rigikit.rigidity import DEFAULT_TRIALS, _evaluate, _Facts


def sweep_is_d_sparse(g: Graph, d: int) -> SparsityReport:
    """Reference: every vertex set with >= d+2 vertices, by bitmask. The
    report keeps the largest set of the largest excess, ties going to the
    smallest bitmask."""
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


def assert_matches_sweep(g: Graph, d: int) -> SparsityReport:
    got = is_d_sparse(g, d)
    assert got == sweep_is_d_sparse(g, d), (g.to_graph6(), d)
    return got


def random_graph(rng: random.Random, n: int) -> Graph:
    p = rng.random()
    return Graph(n, tuple(e for e in itertools.combinations(range(n), 2)
                          if rng.random() < p))


def minimally_rigid(rng: random.Random, d: int, n: int) -> Graph:
    """K_{d+1} grown by random 0- and 1-extensions, randomly relabeled."""
    g = complete_graph(d + 1)
    while g.n < n:
        if rng.random() < 0.5:
            g = zero_extension(g, d, rng.sample(range(g.n), d))
        else:
            e = g.edges[rng.randrange(g.m)]
            others = [v for v in range(g.n) if v not in e]
            g = one_extension(g, d, list(e) + rng.sample(others, d - 1), e)
    perm = list(range(n))
    rng.shuffle(perm)
    return g.relabel(perm)


def k_plus_hangers(d: int, hangers: int) -> Graph:
    """A K_{d+2} on the top labels, and `hangers` vertices on the low labels,
    each joined to d vertices among the clique and the hangers after it."""
    n = d + 2 + hangers
    edges = list(itertools.combinations(range(hangers, n), 2))
    for v in range(hangers):
        edges += [(v, w) for w in range(v + 1, v + 1 + d)]
    return Graph(n, tuple(edges))


class TestAgainstSweep:
    def test_random_graphs_and_complements(self, rng):
        violating = 0
        for i in range(160):
            # the last 30 reach 16 vertices, where the reference is slow
            g = random_graph(rng, rng.randrange(2, 13 if i < 130 else 17))
            d = rng.randrange(2, 8)
            for h in (g, complement(g)):
                violating += not assert_matches_sweep(h, d).sparse
        assert violating >= 50  # the witness path is exercised, not just sparse graphs

    def test_oracle_style_graphs(self, rng):
        # minimally rigid, plus an edge, plus a degree-d vertex: the
        # independent and dependent kinds of the oracle mix
        for d in range(3, 8):
            for n in range(d + 2, 15, 3):
                h = minimally_rigid(rng, d, n)
                assert assert_matches_sweep(h, d).tight
                non_edges = [e for e in itertools.combinations(range(n), 2)
                             if not h.has_edge(*e)]
                if not non_edges:
                    continue
                h = h.with_edge(*rng.choice(non_edges))
                assert not assert_matches_sweep(h, d).sparse
                g = zero_extension(h, d, rng.sample(range(n), d))
                assert assert_matches_sweep(g, d).excess == 1

    def test_named_families(self):
        for d in range(3, 8):
            for t in range(2, d):
                assert_matches_sweep(build_glued_cliques(d, t).graph, d)
        g = complete_bipartite(6, 6)
        for d in range(4, 8):  # the cone ladder over K_{6,6}
            assert_matches_sweep(g, d)
            g = cone(g)

    @pytest.mark.parametrize("n", range(6, 10))
    def test_d3_window_without_the_filter(self, n):
        violating = 0
        for g in enumerate_constrained(SearchSpec(n, degree_min=4, edge_max=3 * n - 6)):
            violating += not assert_matches_sweep(g, 3).sparse
        # counting: a window graph can violate only when n >= d+6
        assert violating == (32 if n == 9 else 0)

    def test_closure_decides_witness(self):
        # the (d+1)-core is the K_{d+2}; every hanger has exactly d
        # neighbours in the clique and the hangers after it, so the largest
        # violator is the whole graph
        for d in (2, 3, 4, 5):
            g = k_plus_hangers(d, 4)
            rep = assert_matches_sweep(g, d)
            assert rep.violator == frozenset(range(g.n)) and rep.excess == 1

    def test_ties_go_to_the_smallest_bitmask(self):
        # two K_{d+2} sharing one vertex: both cliques have excess 1, no
        # vertex joins either by closure, and every labeling of the shared
        # vertex is tried; at d=3 the core has d+6 vertices
        for d in (3, 4):
            n = 2 * d + 3
            for shared in range(n):
                rest = [v for v in range(n) if v != shared]
                halves = (rest[:d + 1], rest[d + 1:])
                g = Graph(n, tuple(e for h in halves
                                   for e in itertools.combinations(h + [shared], 2)))
                rep = assert_matches_sweep(g, d)
                assert rep.violator == frozenset(halves[0] + [shared])


class TestSettledByThePoint:
    """`_Facts.sparsity` after `_evaluate`: a report that a verdict's points
    settle equals the search's, and no verdict moves when the step is off."""

    @staticmethod
    def settled(g: Graph, d: int, seed: int):
        """The report is_circuit's points settle for (g, d), or None when
        the search ran."""
        facts = _Facts(g, d)
        _evaluate(facts, DEFAULT_TRIALS, seed, DEFAULT_PRIME, want_null=True)
        searched = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rigidity, "is_d_sparse",
                       lambda g, d: searched.append(1) or is_d_sparse(g, d))
            rep = facts.sparsity
        return None if searched else rep

    @staticmethod
    def verdicts(cases):
        return [json.dumps([generic_rank(g, d, seed=s).to_json(g),
                            is_circuit(g, d, seed=s)[1].to_json(g)]) for g, d, s in cases]

    def check(self, cases, monkeypatch) -> Counter:
        """Each settled report against `is_d_sparse`, and every verdict with
        the step off; counts settled reports by sparseness."""
        got = Counter()
        for g, d, seed in cases:
            rep = self.settled(g, d, seed)
            if rep is not None:
                assert rep == is_d_sparse(g, d), (g.to_graph6(), d, seed)
                got[rep.sparse] += 1
        on = self.verdicts(cases)
        # a plain property: a cached_property set here never gets its name
        monkeypatch.setattr(_Facts, "sparsity",
                            property(lambda self: rigidity.is_d_sparse(self.g, self.d)))
        assert self.verdicts(cases) == on
        return got

    def test_henneberg_graphs_plus_edges(self, rng, monkeypatch):
        cases = []
        for d in range(1, 7):
            for n in range(d + 2, d + 10):
                g = minimally_rigid(rng, d, n)
                non_edges = [e for e in itertools.combinations(range(n), 2)
                             if not g.has_edge(*e)]
                for e in rng.sample(non_edges, min(2, len(non_edges))):
                    cases.append((g, d, rng.getrandbits(32)))
                    g = g.with_edge(*e)
                cases.append((g, d, rng.getrandbits(32)))
                if g.m > rigidity_target(g, d):  # and a degree-d vertex, as oracle-mix has
                    cases.append((zero_extension(g, d, rng.sample(range(n), d)), d,
                                  rng.getrandbits(32)))
        got = self.check(cases, monkeypatch)
        assert got[False] >= 80

    def test_named_families(self, monkeypatch):
        cases = [(build_glued_cliques(d, t).graph, d, 1) for d in range(3, 8) for t in range(2, d)]
        cases += [(c.graph, d, 2) for d in (3, 4) for c in enumerate_glued_cliques_plus(d)]
        g = complete_bipartite(6, 6)
        for d in range(4, 8):  # the cone ladder over K_{6,6}
            cases.append((g, d, 3))
            g = cone(g)
        got = self.check(cases, monkeypatch)
        # flexible circuits, each d-sparse: the null-vector rule settles all
        assert got[True] == len(cases)

    def test_random_dense_graphs(self, rng, monkeypatch):
        cases = []
        for _ in range(150):
            n, d = rng.randrange(2, 12), rng.randrange(1, 6)
            g = Graph(n, tuple(e for e in itertools.combinations(range(n), 2)
                               if rng.random() < rng.choice((0.6, 0.8, 0.95))))
            cases.append((g, d, rng.getrandbits(32)))
        got = self.check(cases, monkeypatch)
        assert got[False] >= 40

    def test_what_the_point_leaves_to_the_search(self, monkeypatch):
        # no rule fires: on n <= d+1 vertices; on K_{d+2} with an isolated
        # vertex, a circuit whose violator is not V; on K_{d+2} with a
        # pendant edge, whose stress is zero on that edge (at d=1 that graph
        # exceeds the count, and the rank rule settles it)
        cases = []
        for d in range(1, 6):
            k = tuple(itertools.combinations(range(d + 2), 2))
            for g in (complete_graph(d + 1), complete_graph(d + 1).without_edge(0, 1),
                      Graph(d + 3, k), Graph(d + 3, k + ((0, d + 2),))):
                if g.m <= rigidity_target(g, d):
                    assert self.settled(g, d, 5) is None, (g.to_graph6(), d)
                cases.append((g, d, 5))
        self.check(cases, monkeypatch)

    def test_the_rules_wait_for_the_points(self):
        # K_22 at d=3: its 4-core, all 22 vertices, is too large to search,
        # so a report read before the points exist raises the search's
        # error; read after them, the rank rule gives it
        g = complete_graph(22)
        with pytest.raises(ValueError, match="subset search"):
            _Facts(g, 3).sparsity
        facts = _Facts(g, 3)
        _evaluate(facts, DEFAULT_TRIALS, 1, DEFAULT_PRIME, want_null=False)
        rank = max(r for r, _ in facts.points)
        assert rank == rigidity_target(g, 3) == 60
        assert facts.sparsity == SparsityReport(d=3, sparse=False, tight=False,
                                                violator=frozenset(range(22)),
                                                excess=g.m - rank)


class TestLargeGraphs:
    def test_small_core_beyond_twenty_vertices(self):
        # a 40-vertex path with a K_{d+2} hanging off its middle: the core
        # is the clique, and the report is the sweep's on the core
        for d in (3, 5):
            k = d + 2
            edges = [(v, v + 1) for v in range(39)]
            edges += itertools.combinations(range(17, 17 + k), 2)
            g = Graph(40, tuple(edges))
            core = sorted(v for v in range(40) if len(g.neighbors(v)) > d)
            assert len(core) == k
            ref = sweep_is_d_sparse(g.induced(core), d)
            got = is_d_sparse(g, d)
            assert not got.sparse and got.excess == ref.excess
            assert got.violator == frozenset(core[v] for v in ref.violator)

    def test_tree_beyond_twenty_vertices(self):
        tree = Graph(40, tuple((v, (v - 1) // 2) for v in range(1, 40)))
        assert is_d_sparse(tree, 3) == SparsityReport(d=3, sparse=True, tight=False)

    def test_core_above_twenty_vertices_refused(self):
        with pytest.raises(ValueError):
            is_d_sparse(complete_graph(22), 3)

    def test_dimension_below_one_refused(self):
        for d in (0, -1):
            with pytest.raises(ValueError, match="dimension must be >= 1"):
                is_d_sparse(complete_graph(3), d)
