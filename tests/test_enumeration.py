import itertools
from math import comb

import pytest
from hypothesis import given, strategies as st

from conftest import graphs
from rigikit import (
    Graph,
    SearchSpec,
    canonical_code,
    complement,
    complete_graph,
    enumerate_constrained,
    enumerate_regular,
    is_d_sparse,
)
from rigikit.canon import canon_raw
from rigikit.constructions import build_glued_cliques
from rigikit.enumeration import _child_keys, _edge_key, _max_key_ties, _vertex_keys

# OEIS A000088: graphs on n = 0..8 vertices
ALL_GRAPHS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)
# OEIS A005638: cubic graphs on n vertices, connected or not
CUBIC = {4: 1, 6: 2, 8: 6, 10: 21}
# OEIS A033483: quartic graphs on n vertices
QUARTIC = {5: 1, 6: 1, 7: 2, 8: 6, 9: 16}


def brute_classes(n, degree_min, degree_max, edge_min=0, edge_max=None, keep=None):
    """Every labeled graph by neighbor-set backtracking, deduplicated by
    canonical code: the independent oracle for the orderly generator."""
    edge_max = comb(n, 2) if edge_max is None else edge_max
    codes = set()
    adj = [0] * n
    deg = [0] * n

    def rec(v, m):
        if v == n:
            if all(degree_min <= dv <= degree_max for dv in deg) and edge_min <= m <= edge_max:
                if keep is None or keep(list(adj)):
                    codes.add(canon_raw(adj, n)[0])
            return
        cands = [w for w in range(v + 1, n) if deg[w] < degree_max]
        # v's degree is final after this step, so the floor prunes here
        for k in range(max(0, degree_min - deg[v]), degree_max - deg[v] + 1):
            for pick in itertools.combinations(cands, k):
                for w in pick:
                    adj[v] |= 1 << w
                    adj[w] |= 1 << v
                    deg[v] += 1
                    deg[w] += 1
                rec(v + 1, m + k)
                for w in pick:
                    adj[v] &= ~(1 << w)
                    adj[w] &= ~(1 << v)
                    deg[v] -= 1
                    deg[w] -= 1

    rec(0, 0)
    return codes


def parts_at_least_3(n):
    """Partitions of n into parts >= 3 (the 2-regular graph classes)."""
    def rec(remaining, max_part):
        if remaining == 0:
            yield ()
        for p in range(min(remaining, max_part), 2, -1):
            if remaining - p == 0 or remaining - p >= 3:
                for rest in rec(remaining - p, p):
                    yield (p,) + rest

    return list(rec(n, n))


class TestRegular:
    @pytest.mark.parametrize("n,k,count", [
        (4, 3, 1), (5, 2, 1), (6, 3, 2), (7, 4, 2), (8, 3, 6), (9, 4, 16), (10, 3, 21),
    ])
    def test_known_counts(self, n, k, count):
        assert sum(1 for _ in enumerate_regular(n, k)) == count

    def test_parity_error(self):
        with pytest.raises(ValueError, match="parity"):
            list(enumerate_regular(5, 3))

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            list(enumerate_regular(4, 4))

    def test_outputs_are_regular_and_distinct(self):
        seen = set()
        for g in enumerate_regular(8, 3):
            assert set(g.degrees) == {3}
            code = canonical_code(g)
            assert code not in seen
            seen.add(code)

    @pytest.mark.parametrize("n,k", [(6, 2), (6, 3), (7, 2), (7, 4), (8, 2), (8, 3)])
    def test_matches_brute_force(self, n, k):
        want = brute_classes(n, k, k)
        got = {canon_raw(g.adj, g.n)[0] for g in enumerate_regular(n, k)}
        assert got == want

    def test_complement_duality_15_12(self):
        # 12-regular classes on 15 vertices = complements of 2-regular ones,
        # which biject with partitions of 15 into parts >= 3
        parts = parts_at_least_3(15)
        assert len(parts) == 17
        cycles = []
        for p in parts:
            edges = []
            base = 0
            for size in p:
                edges += [(base + i, base + (i + 1) % size) for i in range(size)]
                base += size
            cycles.append(Graph(15, tuple(edges)))
        expect = {canonical_code(complement(g)) for g in cycles}
        got = {canonical_code(g) for g in enumerate_regular(15, 12)}
        assert got == expect


class TestConstrained:
    def test_k5_only(self):
        out = list(enumerate_constrained(SearchSpec(n=5, degree_min=4)))
        assert len(out) == 1
        assert canonical_code(out[0]) == canonical_code(complete_graph(5))

    def test_includes_glued_32(self):
        spec = SearchSpec(n=8, degree_min=4, d_sparse_filter=3)
        codes = {canonical_code(g) for g in enumerate_constrained(spec)}
        assert canonical_code(build_glued_cliques(3, 2).graph) in codes

    def test_sparse_filter_is_exact(self):
        spec = SearchSpec(n=7, degree_min=3, d_sparse_filter=3)
        out = list(enumerate_constrained(spec))
        assert out
        for g in out:
            assert is_d_sparse(g, 3).sparse

    def test_matches_brute_force_with_bounds(self):
        for n, lo, hi in [(6, 2, 3), (7, 2, 3), (6, 3, 5)]:
            want = brute_classes(n, lo, hi)
            got = {canon_raw(g.adj, g.n)[0]
                   for g in enumerate_constrained(SearchSpec(n=n, degree_min=lo, degree_max=hi))}
            assert got == want, (n, lo, hi)

    def test_edge_window(self):
        spec = SearchSpec(n=6, edge_min=4, edge_max=5)
        got = {canon_raw(g.adj, g.n)[0]
               for g in enumerate_constrained(spec)}
        want = brute_classes(6, 0, 5, edge_min=4, edge_max=5)
        assert got == want

    def test_classification_window_matches_brute_force(self):
        # the flexible-circuit search front end at a size a full labeled
        # enumeration can still cross-check
        def sparse3(adj):
            g = Graph(7, tuple(
                (u, v) for u in range(7) for v in range(u + 1, 7) if adj[u] >> v & 1
            ))
            return bool(is_d_sparse(g, 3))

        want = brute_classes(7, 4, 6, edge_min=14, keep=sparse3)
        spec = SearchSpec(n=7, degree_min=4, edge_min=14, d_sparse_filter=3)
        got = {canon_raw(g.adj, g.n)[0] for g in enumerate_constrained(spec)}
        assert got == want and len(got) == 8

    def test_connectivity_filter(self):
        spec = SearchSpec(n=6, degree_min=2, degree_max=3, connectivity_min=2)
        for g in enumerate_constrained(spec):
            from rigikit import is_k_connected

            assert is_k_connected(g, 2)[0]

    def test_infeasible_specs_rejected(self):
        with pytest.raises(ValueError):
            SearchSpec(n=5, degree_min=3, degree_max=2)
        with pytest.raises(ValueError):
            SearchSpec(n=6, degree_min=5, edge_max=10)
        with pytest.raises(ValueError):
            SearchSpec(n=6, edge_min=10, edge_max=5)

    def test_empty_and_tiny(self):
        assert [g.n for g in enumerate_constrained(SearchSpec(n=0))] == [0]
        out = list(enumerate_constrained(SearchSpec(n=1)))
        assert len(out) == 1 and out[0].n == 1

    def test_no_duplicates_across_stream(self):
        spec = SearchSpec(n=8, degree_min=3, degree_max=4)
        seen = set()
        for g in enumerate_constrained(spec):
            code = canonical_code(g)
            assert code not in seen
            seen.add(code)


class TestPartition:
    def test_shards_partition_the_stream(self):
        spec = SearchSpec(n=8, degree_min=3, degree_max=3)
        full = {canonical_code(g) for g in enumerate_constrained(spec)}
        pieces = []
        for i in range(3):
            pieces.append({canonical_code(g)
                           for g in enumerate_constrained(spec, partition=(i, 3))})
        assert set().union(*pieces) == full
        for a, b in itertools.combinations(range(3), 2):
            assert not (pieces[a] & pieces[b])

    def test_shards_partition_regular(self):
        full = {canonical_code(g) for g in enumerate_regular(10, 3)}
        pieces = [
            {canonical_code(g) for g in enumerate_regular(10, 3, partition=(i, 4))}
            for i in range(4)
        ]
        assert set().union(*pieces) == full
        assert sum(len(p) for p in pieces) == len(full)

    def test_bad_partition_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_regular(6, 3, partition=(3, 3)))


def stream_codes(stream):
    """The canonical codes of a stream, checking that each graph is emitted
    in its canonical form and that no class repeats."""
    codes = []
    for g in stream:
        code = canonical_code(g)
        assert g.to_graph6() == code.decode("ascii")
        codes.append(code)
    assert len(set(codes)) == len(codes)
    return codes


class TestOEISCounts:
    @pytest.mark.parametrize("n", [
        *range(8), pytest.param(8, marks=pytest.mark.slow),
    ])
    def test_all_graphs(self, n):
        codes = stream_codes(enumerate_constrained(SearchSpec(n=n)))
        assert len(codes) == ALL_GRAPHS[n]

    @pytest.mark.parametrize("n", sorted(CUBIC))
    def test_cubic(self, n):
        assert len(stream_codes(enumerate_regular(n, 3))) == CUBIC[n]

    @pytest.mark.parametrize("n", sorted(QUARTIC))
    def test_quartic(self, n):
        assert len(stream_codes(enumerate_regular(n, 4))) == QUARTIC[n]


class TestCanonicalOutput:
    @pytest.mark.parametrize("spec", [
        SearchSpec(n=9, degree_min=2, degree_max=3),  # direct branch
        SearchSpec(n=8, degree_min=4, d_sparse_filter=3),  # complement branch
        SearchSpec(n=7, degree_min=3, degree_max=6),  # complement branch
    ])
    def test_emitted_graphs_are_canonical_and_distinct(self, spec):
        assert stream_codes(enumerate_constrained(spec))

    def test_canon_call_budget(self, monkeypatch):
        # children are rejected by the edge key before canonizing, and an
        # accepted node's code is reused for the output
        calls = 0

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return canon_raw(*args, **kwargs)

        monkeypatch.setattr("rigikit.enumeration.canon_raw", counting)
        out = list(enumerate_constrained(SearchSpec(n=10, degree_min=2, degree_max=3)))
        assert len(out) == 525
        assert calls <= 5400


class TestEdgeKey:
    @given(graphs(min_n=2), st.randoms(use_true_random=False))
    def test_relabeling_equivariant(self, g, r):
        perm = list(range(g.n))
        r.shuffle(perm)
        h = g.relabel(perm)
        kg, kh = _vertex_keys(list(g.adj), g.n), _vertex_keys(list(h.adj), h.n)
        assert [kh[perm[v]] for v in range(g.n)] == kg
        for a, b in g.edges:
            assert _edge_key(g.adj, kg, a, b) == _edge_key(h.adj, kh, perm[a], perm[b])

    @given(graphs(min_n=2))
    def test_child_keys_and_ties_match_brute_force(self, g):
        keys = _vertex_keys(list(g.adj), g.n)
        for u, v in itertools.combinations(range(g.n), 2):
            if g.has_edge(u, v):
                continue
            child = g.with_edge(u, v)
            ckeys = _child_keys(keys, list(g.adj), list(g.degrees), u, v, g.n)
            assert ckeys == _vertex_keys(list(child.adj), g.n)
            edge_keys = {e: _edge_key(child.adj, ckeys, *e) for e in child.edges}
            top = max(edge_keys.values())
            ties = _max_key_ties(list(child.adj), ckeys, u, v)
            if edge_keys[(u, v)] < top:
                assert ties is None
            else:
                assert sorted(ties) == sorted(e for e, k in edge_keys.items() if k == top)
