import itertools
import random

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from rigikit import (
    Graph,
    canonical_code,
    canonical_form,
    canonical_labeling,
    complete_graph,
    cycle_graph,
)
from rigikit.canon import automorphism_generators, canon_raw

from conftest import graphs


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    """Backtracking isomorphism search, independent of the canonizer."""
    if g.n != h.n or g.m != h.m or sorted(g.degrees) != sorted(h.degrees):
        return False
    n = g.n
    mapping = [-1] * n
    used = [False] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or g.degrees[v] != h.degrees[w]:
                continue
            ok = True
            for u in range(v):
                if bool(g.adj[v] >> u & 1) != bool(h.adj[w] >> mapping[u] & 1):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(v + 1):
                    return True
                used[w] = False
        return False

    return extend(0)


def from_nx(G: nx.Graph) -> Graph:
    G = nx.convert_node_labels_to_integers(G)
    return Graph(G.number_of_nodes(), tuple(G.edges()))


def closure_order(gens, n: int) -> int:
    """The order of the group the permutations generate, by listing it."""
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(map(g.__getitem__, p))
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return len(seen)


def brute_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    return [p for p in itertools.permutations(range(g.n)) if g.relabel(list(p)) == g]


def permutation_count(g: Graph) -> int:
    return len(brute_automorphisms(g))


def matcher_count(g: Graph) -> int:
    G = nx.Graph(list(g.edges))
    G.add_nodes_from(range(g.n))
    return sum(1 for _ in GraphMatcher(G, G).isomorphisms_iter())


def orbits_of(gens, n: int) -> list[frozenset]:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in gens:
        for v in range(n):
            ra, rb = find(v), find(a[v])
            if ra != rb:
                parent[ra] = rb
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), set()).add(v)
    return sorted(frozenset(s) for s in groups.values())


class TestInvariance:
    def test_200_permutations_of_20_graphs(self):
        # isomorphism-invariance at the sample sizes the contract names
        rng = random.Random(77)
        graphs_pool = []
        while len(graphs_pool) < 20:
            n = rng.randrange(1, 11)
            es = tuple(e for e in itertools.combinations(range(n), 2)
                       if rng.random() < rng.choice([0.2, 0.5, 0.8]))
            graphs_pool.append(Graph(n, es))
        checks = 0
        while checks < 200:
            g = graphs_pool[checks % 20]
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_code(g.relabel(perm)) == canonical_code(g)
            checks += 1

    @given(graphs(), st.randoms(use_true_random=False))
    def test_relabel_invariance(self, g, r):
        perm = list(range(g.n))
        r.shuffle(perm)
        assert canonical_code(g.relabel(perm)) == canonical_code(g)

    def test_code_is_graph6_of_canonical_form(self):
        g = cycle_graph(6)
        lab = canonical_labeling(g)
        assert g.relabel(lab.permutation).to_graph6() == lab.code.decode("ascii")
        assert canonical_form(g).to_graph6() == lab.code.decode("ascii")

    def test_c6_differs_from_two_triangles(self):
        two_tri = Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
        assert canonical_code(cycle_graph(6)) != canonical_code(two_tri)


class TestCompleteness:
    def test_equal_codes_iff_brute_isomorphic(self):
        rng = random.Random(3)
        for _ in range(150):
            n = rng.randrange(2, 9)
            p = rng.choice([0.3, 0.5, 0.7])
            e1 = tuple(e for e in itertools.combinations(range(n), 2) if rng.random() < p)
            e2 = tuple(e for e in itertools.combinations(range(n), 2) if rng.random() < p)
            g, h = Graph(n, e1), Graph(n, e2)
            assert (canonical_code(g) == canonical_code(h)) == brute_isomorphic(g, h)

    def test_equal_codes_iff_networkx_isomorphic(self):
        rng = random.Random(4)
        for _ in range(100):
            n = rng.randrange(2, 9)
            e1 = tuple(e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5)
            e2 = tuple(e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5)
            g, h = Graph(n, e1), Graph(n, e2)
            G = nx.Graph(list(e1))
            G.add_nodes_from(range(n))
            H = nx.Graph(list(e2))
            H.add_nodes_from(range(n))
            assert (canonical_code(g) == canonical_code(h)) == nx.is_isomorphic(G, H)


class TestAutomorphisms:
    def test_generator_orbits_match_brute_force(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randrange(2, 8)
            es = tuple(e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5)
            g = Graph(n, es)
            gens = automorphism_generators(g)
            for a in gens:
                assert g.relabel(list(a)) == g  # real automorphisms
            assert orbits_of(gens, n) == orbits_of(brute_automorphisms(g), n)

    def test_symmetric_extremes(self):
        # vertex-transitive cases exercise the orbit pruning heavily
        for g in (complete_graph(8), Graph(8), cycle_graph(8)):
            code = canonical_code(g)
            for _ in range(5):
                perm = list(range(8))
                random.Random(1).shuffle(perm)
                assert canonical_code(g.relabel(perm)) == code


class TestGroupOrders:
    # The orderly generator accepts a child only if its new edge lies in the
    # orbit of the canonical edge, computed from these generators; a missing
    # generator silently drops classes.
    @pytest.mark.parametrize("name,g,order,count", [
        ("petersen", from_nx(nx.petersen_graph()), 120, matcher_count),
        ("Q4", from_nx(nx.hypercube_graph(4)), 384, matcher_count),
        ("rook 4x4", from_nx(nx.cartesian_product(nx.complete_graph(4),
                                                  nx.complete_graph(4))), 1152, matcher_count),
        ("K3,3", from_nx(nx.complete_bipartite_graph(3, 3)), 72, permutation_count),
        ("C8", cycle_graph(8), 16, permutation_count),
    ])
    def test_generated_group_is_the_automorphism_group(self, name, g, order, count):
        gens = automorphism_generators(g)
        for a in gens:
            assert g.relabel(list(a)) == g
        assert closure_order(gens, g.n) == count(g) == order

    def test_four_disjoint_squares(self):
        # Aut(4 C4) is Aut(C4) wr S4: |Aut(C4)|^4 * 4! = 98,304
        g = from_nx(nx.disjoint_union_all([nx.cycle_graph(4)] * 4))
        gens = automorphism_generators(g)
        for a in gens:
            assert g.relabel(list(a)) == g
        assert closure_order(gens, g.n) == permutation_count(cycle_graph(4)) ** 4 * 24 == 98304


class TestTwins:
    # twin classes are seeded as transpositions, so these finish at once
    @pytest.mark.parametrize("g,orbits", [
        (Graph(40), [frozenset(range(40))]),
        (Graph(31, tuple((0, i) for i in range(1, 31))),
         [frozenset({0}), frozenset(range(1, 31))]),
        (Graph(30, tuple((i, 15 + j) for i in range(15) for j in range(15))),
         [frozenset(range(30))]),
        (Graph(30, tuple((2 * i, 2 * i + 1) for i in range(15))), [frozenset(range(30))]),
    ], ids=["empty-40", "K1,30", "K15,15", "15K2"])
    def test_twin_heavy_graphs(self, g, orbits):
        code, perm, gens = canon_raw(g.adj, g.n)
        assert len(gens) <= g.n - 1
        for a in gens:
            assert g.relabel(list(a)) == g
        assert orbits_of(gens, g.n) == orbits
        assert g.relabel(list(perm)).to_graph6() == canonical_code(g).decode("ascii")
        rng = random.Random(g.n)
        for _ in range(3):
            p = list(range(g.n))
            rng.shuffle(p)
            assert canon_raw(g.relabel(p).adj, g.n)[0] == code
