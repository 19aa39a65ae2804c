import itertools
import math

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rigikit import (
    Graph,
    canonical_code,
    complete_bipartite,
    complete_graph,
    cone,
    cycle_graph,
    is_d_sparse,
    is_flexible_circuit,
    is_independent,
)
from rigikit import constructions
from rigikit.constructions import (
    _placement_signature,
    build_glued_cliques,
    enumerate_glued_cliques_plus,
    one_extension,
    t_sum,
    two_sum,
    vertex_split,
    zero_extension,
)

from conftest import graphs


class TestGluedCliques:
    @pytest.mark.parametrize("d,t,nv,ne", [
        (3, 2, 8, 18), (4, 3, 9, 26), (4, 2, 10, 28), (5, 4, 10, 35), (6, 5, 11, 45),
    ])
    def test_counts(self, d, t, nv, ne):
        c = build_glued_cliques(d, t)
        assert (c.graph.n, c.graph.m) == (nv, ne)
        assert c.graph.m == 2 * math.comb(d + 2, 2) - math.comb(t, 2) - 1

    def test_removed_edge_inside_shared(self):
        c = build_glued_cliques(5, 3)
        u, v = c.roles["removed_edge"]
        assert u in c.roles["shared"] and v in c.roles["shared"]
        assert not c.graph.has_edge(u, v)

    def test_range_errors(self):
        for d, t in [(2, 2), (3, 1), (3, 3), (4, 4), (3, 0)]:
            with pytest.raises(ValueError):
                build_glued_cliques(d, t)

    def test_sparse_and_tight_exactly_when_top_overlap(self):
        for d in range(3, 7):
            for t in range(2, d):
                rep = is_d_sparse(build_glued_cliques(d, t).graph, d)
                assert rep.sparse
                assert rep.tight == (t == d - 1)

    def test_flexible_circuits_across_dimensions(self):
        # the two largest-overlap families at their native dimension
        for d in range(3, 7):
            f, v = is_flexible_circuit(build_glued_cliques(d, d - 1).graph, d)
            assert f is True
        for d in range(4, 7):
            f, v = is_flexible_circuit(build_glued_cliques(d, d - 2).graph, d)
            assert f is True


def _placements(d, every_e=True):
    """Each legal placement (e, f, g), in the order of all placements:
    e runs over every shared pair, or only the least one."""
    shared = tuple(range(4, d + 3))
    shared_set = set(shared)
    edges = sorted(itertools.combinations(range(d + 3), 2))
    es = itertools.combinations(shared, 2) if every_e else [shared[:2]]
    for e in es:
        rest = [x for x in edges if x != e]
        for f, g in itertools.combinations(rest, 2):
            if set(e) & set(f) & set(g):
                continue
            if not set(f) <= shared_set and not set(g) <= shared_set and set(f) & set(g):
                continue
            yield e, f, g


def _placement_graph(d, e, f, g):
    c1 = range(d + 3)
    c2 = [*range(4, d + 3), d + 3, d + 4, d + 5]
    edges = {*itertools.combinations(c1, 2), *itertools.combinations(c2, 2)}
    return Graph(d + 6, tuple(edges - {e, f, g}))


def _reference_members(d, every_e=True):
    """The family canonized placement by placement: each code's first
    placement, as (graph, (e, f, g))."""
    out, seen = [], set()
    for placement in _placements(d, every_e):
        graph = _placement_graph(d, *placement)
        code = canonical_code(graph)
        if code not in seen:
            seen.add(code)
            out.append((graph, placement))
    return out


def _members(d):
    return [(c.graph, tuple(c.roles[r] for r in ("removed_e", "removed_f", "removed_g")))
            for c in enumerate_glued_cliques_plus(d)]


class TestGluedCliquesPlus:
    @pytest.mark.parametrize("d,count", [
        (3, 3), (4, 8), (5, 13), (6, 15), *((d, 16) for d in range(7, 13)),
        *(pytest.param(d, 16, marks=pytest.mark.slow) for d in range(13, 21)),
    ])
    def test_golden_class_counts(self, d, count):
        # d <= 5 frozen from a placement enumeration deduplicated by
        # explicit isomorphism search (networkx), independent of the
        # canonizer; d <= 10 agrees with canonizing every placement
        members = enumerate_glued_cliques_plus(d)
        assert len(members) == count

    @pytest.mark.parametrize("d", [
        3, 4, 5, 6, *(pytest.param(d, marks=pytest.mark.slow) for d in (7, 8)),
    ])
    def test_same_list_as_canonizing_every_placement(self, d):
        # graphs, deleted edges and order; d=8 reaches past the f, g window
        assert _members(d) == _reference_members(d)

    @pytest.mark.parametrize("d", [9, 10])
    def test_window_keeps_each_first_placement(self, d):
        # with e fixed, the reference still sees every shared label
        assert _members(d) == _reference_members(d, every_e=False)

    def test_signature_determines_the_class(self):
        # at d=7 every colored pattern of e, f and g occurs
        codes = {}
        placements = list(_placements(7, every_e=False))
        assert len(placements) == 722
        for e, f, g in placements:
            signature = _placement_signature((e, f, g), set(range(4, 10)))
            codes.setdefault(signature, set()).add(canonical_code(_placement_graph(7, e, f, g)))
        assert all(len(c) == 1 for c in codes.values())

    @pytest.mark.parametrize("d", [3, 4])
    def test_each_placement_matches_one_member_under_networkx(self, d):
        # complements are sparse, so VF2 decides them quickly
        def nx_complement(graph):
            h = nx.Graph(graph.edges)
            h.add_nodes_from(range(graph.n))
            return nx.complement(h)

        members = [nx_complement(c.graph) for c in enumerate_glued_cliques_plus(d)]
        for placement in _placements(d):
            h = nx_complement(_placement_graph(d, *placement))
            assert sum(nx.is_isomorphic(h, m) for m in members) == 1

    @pytest.mark.parametrize("d", range(3, 11))
    def test_canonizes_once_per_class(self, d, monkeypatch):
        calls = []
        real = constructions.canon_raw
        monkeypatch.setattr(constructions, "canon_raw", lambda *a: calls.append(1) or real(*a))
        members = enumerate_glued_cliques_plus(d)
        assert len(calls) == len(members) <= 16

    def test_members_have_d_plus_6_vertices_and_tight(self):
        for d in (3, 4, 5):
            for c in enumerate_glued_cliques_plus(d):
                assert c.graph.n == d + 6
                assert is_d_sparse(c.graph, d).tight

    def test_all_members_are_circuits_at_d3(self):
        for c in enumerate_glued_cliques_plus(3):
            f, v = is_flexible_circuit(c.graph, 3)
            assert f is True and v.rank_lb == c.graph.m - 1

    def test_deleted_edges_absent(self):
        for c in enumerate_glued_cliques_plus(3):
            for role in ("removed_e", "removed_f", "removed_g"):
                u, v = c.roles[role]
                assert not c.graph.has_edge(u, v)

    def test_placement_rules_hold(self):
        for d in (3, 4):
            shared = set(range(4, d + 3))
            for c in enumerate_glued_cliques_plus(d):
                e, f, g = (set(c.roles[r]) for r in ("removed_e", "removed_f", "removed_g"))
                assert e <= shared
                assert not (e & f & g)
                if not (f <= shared) and not (g <= shared):
                    assert not (f & g)


class TestExtensions:
    def test_zero_extension_k3(self):
        g = zero_extension(complete_graph(3), 2, [0, 1])
        assert canonical_code(g) == canonical_code(complete_graph(4).without_edge(2, 3))

    def test_zero_extension_from_kd1(self):
        for d in (2, 3, 4):
            g = zero_extension(complete_graph(d + 1), d, list(range(d)))
            assert canonical_code(g) == canonical_code(
                complete_graph(d + 2).without_edge(d, d + 1))
            ok, _ = is_independent(g, d)
            assert ok is True

    def test_duplicate_neighbor_rejected(self):
        with pytest.raises(ValueError):
            zero_extension(complete_graph(4), 2, [1, 1])

    def test_one_extension_counts_and_degree(self):
        g = complete_graph(5)
        h = one_extension(g, 3, [0, 1, 2, 3], (0, 1))
        assert h.n == g.n + 1 and h.m == g.m + 3
        assert h.degrees[h.n - 1] == 4
        assert not h.has_edge(0, 1)

    def test_one_extension_absent_edge_rejected(self):
        g = complete_graph(5).without_edge(0, 1)
        with pytest.raises(ValueError):
            one_extension(g, 3, [0, 1, 2, 3], (0, 1))


class TestVertexSplit:
    def test_triangle_split(self):
        # hinge one neighbor, the other neighbor goes to v1: K4 minus an edge
        g = vertex_split(complete_graph(3), 2, 0, hinge=[1], part1=[2])
        assert g.n == 4 and g.m == 5
        assert canonical_code(g) == canonical_code(complete_graph(4).without_edge(0, 1))

    def test_count_law(self):
        for d in (2, 3):
            g = complete_graph(d + 2)
            h = vertex_split(g, d, 0, hinge=list(range(1, d)), part1=[d])
            assert h.n == g.n + 1 and h.m == g.m + d

    def test_bad_hinge_rejected(self):
        g = cycle_graph(5)
        with pytest.raises(ValueError):
            vertex_split(g, 3, 0, hinge=[2, 3], part1=[])


class TestCone:
    def test_cone_of_complete(self):
        assert cone(complete_graph(5)) == complete_graph(6)

    def test_edge_growth(self):
        g = cycle_graph(6)
        assert cone(g).m == g.m + g.n

    def test_cone_k66_flexible_r5_circuit(self):
        g = cone(complete_bipartite(6, 6))
        assert g.n == 13
        f, v = is_flexible_circuit(g, 5)
        assert f is True


class TestSums:
    def test_two_sum_k5_k5(self):
        c = two_sum(complete_graph(5), complete_graph(5), 3, 4)
        assert canonical_code(c.graph) == canonical_code(build_glued_cliques(3, 2).graph)

    def test_two_sum_k6_k6(self):
        c = two_sum(complete_graph(6), complete_graph(6), 4, 5)
        assert canonical_code(c.graph) == canonical_code(build_glued_cliques(4, 2).graph)

    def test_edge_count(self):
        c = two_sum(complete_graph(5), complete_graph(6), 0, 1)
        assert c.graph.m == 10 + 15 - 2

    def test_missing_shared_edge_rejected(self):
        k4, k5 = complete_graph(4), complete_graph(5)
        for first, second, u, v in [
            (k5.without_edge(0, 1), k5, 0, 1),
            (k5, k5.without_edge(0, 1), 0, 1),  # only the second lacks the edge
            (k5, k5, 2, 2),                     # a vertex with itself is no edge
            (k5, k5, 0, 5),                     # label 5 is in neither summand
            (k5, k4, 0, 4),                     # label 4 is not in the second
            (k4, k5, 0, 4),                     # nor here in the first
        ]:
            with pytest.raises(ValueError):
                two_sum(first, second, u, v)

    def test_t2_sum_equals_two_sum(self):
        a = t_sum(complete_graph(5), complete_graph(5), (3, 4), (3, 4))
        b = two_sum(complete_graph(5), complete_graph(5), 3, 4)
        assert a.graph == b.graph

    def test_t3_sum_counts(self):
        c = t_sum(complete_graph(5), complete_graph(5), (0, 1, 2), (0, 1))
        assert c.graph.n == 7 and c.graph.m == 10 + 10 - 3 - 1

    def test_shared_not_clique_rejected(self):
        g = cycle_graph(5)
        with pytest.raises(ValueError, match="clique"):
            t_sum(g, complete_graph(5), (0, 1, 2), (0, 1))

    def test_deleted_edge_outside_shared_rejected(self):
        with pytest.raises(ValueError):
            t_sum(complete_graph(5), complete_graph(5), (0, 1), (2, 3))

    def test_roles_record_relabeling(self):
        c = two_sum(complete_graph(5), complete_graph(5), 0, 1)
        m = c.roles["second_summand_map"]
        assert m[0] == 0 and m[1] == 1
        assert sorted(m.values()) == [0, 1, 5, 6, 7]


@given(graphs(min_n=1, max_n=8))
def test_cone_adds_universal_vertex(g):
    h = cone(g)
    assert h.degrees[h.n - 1] == g.n
    assert h.m == g.m + g.n
