import itertools
import random

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rigikit import (
    Graph,
    complement,
    complete_bipartite,
    complete_graph,
    contract_edge,
    cycle_graph,
    degree_profile,
    distance,
    find_deg23_witness,
    graph6_decode,
    graph6_encode,
    is_k_connected,
)
from rigikit.constructions import build_glued_cliques

from conftest import graphs


def to_nx(g: Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    return G


class TestBasics:
    def test_complete_counts(self):
        assert complete_graph(5).m == 10
        assert complete_graph(0).m == 0 and complete_graph(0).n == 0
        assert complete_graph(6).m == 15

    def test_bipartite_counts(self):
        g = complete_bipartite(6, 6)
        assert (g.n, g.m) == (12, 36)
        assert complete_bipartite(1, 1).m == 1
        assert complete_bipartite(0, 5) == Graph(5)

    def test_invariants_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, ((0, 0),))
        with pytest.raises(ValueError):
            Graph(2, ((0, 2),))

    def test_edges_normalized(self):
        assert Graph(3, ((2, 0), (1, 0), (0, 1))).edges == ((0, 1), (0, 2))
        assert Graph(3, ([1, 2], [0, 1])).edges == ((0, 1), (1, 2))

    def test_ordered_edge_tuples_are_shared(self):
        e = (0, 1)
        assert Graph(2, (e,)).edges[0] is e


class TestComplement:
    def test_complement_k5_edgeless(self):
        assert complement(complete_graph(5)).m == 0

    def test_pentagon_self_complementary(self):
        c5 = cycle_graph(5)
        from rigikit import canonical_code

        assert canonical_code(complement(c5)) == canonical_code(c5)

    def test_degree_arithmetic(self):
        # a 12-regular graph on 15 vertices complements to a 2-regular one
        h = complement(cycle_graph(15))
        assert set(h.degrees) == {12}
        assert set(complement(h).degrees) == {2}

    @given(graphs())
    def test_involution(self, g):
        assert complement(complement(g)) == g


class TestContract:
    def test_k4_contracts_to_k3(self):
        assert contract_edge(complete_graph(4), 0, 1) == complete_graph(3)

    def test_cycle_contracts(self):
        assert contract_edge(cycle_graph(4), 0, 1).m == 3
        g5 = contract_edge(cycle_graph(5), 1, 2)
        from rigikit import canonical_code

        assert canonical_code(g5) == canonical_code(cycle_graph(4))

    def test_absent_edge_rejected(self):
        with pytest.raises(ValueError, match="absent"):
            contract_edge(cycle_graph(4), 0, 2)

    @given(graphs(min_n=2))
    def test_counts(self, g):
        if not g.edges:
            return
        u, v = g.edges[0]
        h = contract_edge(g, u, v)
        assert h.n == g.n - 1
        assert h.m <= g.m - 1


class TestDistance:
    def test_adjacent(self):
        assert distance(complete_graph(3), 0, 1) == 1

    def test_antipodal_c6(self):
        assert distance(cycle_graph(6), 0, 3) == 3

    def test_unreachable(self):
        g = Graph(4, ((0, 1),))
        assert distance(g, 0, 3) is None
        assert distance(g, 2, 2) == 0

    @given(graphs(min_n=2))
    def test_symmetry(self, g):
        assert distance(g, 0, g.n - 1) == distance(g, g.n - 1, 0)


class TestDegreeProfile:
    def test_k5(self):
        dmin, dmax, _ = degree_profile(complete_graph(5))
        assert (dmin, dmax) == (4, 4)

    def test_star(self):
        dmin, dmax, degs = degree_profile(complete_bipartite(1, 4))
        assert (dmin, dmax) == (1, 4)

    def test_glued_cliques_32(self):
        # computed from the construction: six vertices of degree 4 and the
        # two removed-edge endpoints of degree 2(d+1)-2 = 6
        dmin, dmax, degs = degree_profile(build_glued_cliques(3, 2).graph)
        assert (dmin, dmax) == (4, 6)
        assert sorted(degs) == [4, 4, 4, 4, 4, 4, 6, 6]


class TestConnectivity:
    def test_k5_is_4_connected(self):
        ok, wit = is_k_connected(complete_graph(5), 4)
        assert ok and wit is None

    def test_glued_cliques_cut(self):
        for d in (3, 4):
            c = build_glued_cliques(d, d - 1)
            ok, wit = is_k_connected(c.graph, d)
            assert not ok
            assert wit == frozenset(c.roles["shared"])

    def test_c4_not_3_connected(self):
        ok, wit = is_k_connected(cycle_graph(4), 3)
        assert not ok and len(wit) == 2

    def test_small_graph_never_k_connected(self):
        ok, wit = is_k_connected(complete_graph(3), 3)
        assert not ok and wit is None

    @given(graphs(min_n=2, max_n=8), st.integers(1, 4))
    def test_agrees_with_networkx(self, g, k):
        ok, _ = is_k_connected(g, k)
        assert ok == (g.n > k and nx.node_connectivity(to_nx(g)) >= k)


class TestDeg23Witness:
    def test_cubic_graph_none(self):
        g = complete_bipartite(3, 3)  # 3-regular
        assert find_deg23_witness(g) is None

    def test_c12_none(self):
        assert find_deg23_witness(cycle_graph(12)) is None

    def test_witness_valid_when_found(self, rng):
        for _ in range(50):
            n = rng.randrange(6, 13)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.25]
            g = Graph(n, tuple(edges))
            w = find_deg23_witness(g)
            if w is not None:
                x, y = w
                assert g.degrees[x] == 2 and g.degrees[y] == 3
                dxy = distance(g, x, y)
                assert dxy is None or dxy >= 3


class TestGraph6:
    @given(graphs(max_n=12))
    def test_roundtrip(self, g):
        assert graph6_decode(graph6_encode(g)) == g

    @given(graphs(max_n=12))
    def test_matches_networkx(self, g):
        ours = graph6_encode(g)
        theirs = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
        assert ours == theirs

    def test_header_stripped(self):
        g = complete_graph(4)
        assert graph6_decode(">>graph6<<" + graph6_encode(g)) == g

    def test_rejects_oversize(self):
        with pytest.raises(ValueError):
            graph6_encode(Graph(63))

    def test_rejects_bad_body(self):
        with pytest.raises(ValueError):
            graph6_decode("D")
