import hashlib
import itertools
import re
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
from rigikit.enumeration import _candidates, _child_keys, _max_key_ties

# OEIS A000088: graphs on n = 0..8 vertices
ALL_GRAPHS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)
# OEIS A005638: cubic graphs on n vertices, connected or not
CUBIC = {4: 1, 6: 2, 8: 6, 10: 21}
# OEIS A033483: quartic graphs on n vertices
QUARTIC = {5: 1, 6: 1, 7: 2, 8: 6, 9: 16}
_EMPTY = hashlib.sha1(b"").hexdigest()  # an empty shard


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
        # an odd degree sum leaves the edge window empty: 15/2 rounds up and down
        message = "infeasible edge window [8, 7] for degrees [3, 3] on 5 vertices"
        with pytest.raises(ValueError, match=re.escape(message)):
            list(enumerate_regular(5, 3))

    def test_degree_out_of_range(self):
        # rejected at the call, before the stream is iterated
        for k in (-1, 4):
            with pytest.raises(ValueError, match="degree bounds"):
                enumerate_regular(4, k)

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

    @pytest.mark.parametrize("kwargs, message", [
        ({"d_sparse_filter": 0}, "dimension must be >= 1"),
        ({"d_sparse_filter": -1}, "dimension must be >= 1"),
        ({"edge_max": -3}, "infeasible edge window"),
        ({"edge_min": -1}, "infeasible edge window"),
        ({"degree_max": 1, "edge_min": 3},
         "infeasible edge window [3, 2] for degrees [0, 1] on 5 vertices"),
    ])
    def test_rejection_names_the_cause(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SearchSpec(n=5, **kwargs)

    def test_window_accepted_iff_some_graph_fills_it(self):
        # every labeled graph on n <= 6 vertices, as (min degree, max degree,
        # edges); a window is feasible exactly when one of them lies in it
        windows = 0
        for n in range(1, 7):
            pairs = list(itertools.combinations(range(n), 2))
            filled = set()
            for mask in range(1 << len(pairs)):
                degs = [0] * n
                for k, (u, v) in enumerate(pairs):
                    if mask >> k & 1:
                        degs[u] += 1
                        degs[v] += 1
                filled.add((min(degs), max(degs), mask.bit_count()))
            for dmin, dmax in itertools.combinations_with_replacement(range(n), 2):
                for emin, emax in itertools.combinations_with_replacement(
                        range(len(pairs) + 1), 2):
                    windows += 1
                    want = any(dmin <= lo and hi <= dmax and emin <= m <= emax
                               for lo, hi, m in filled)
                    try:
                        SearchSpec(n=n, degree_min=dmin, degree_max=dmax,
                                   edge_min=emin, edge_max=emax)
                        got = True
                    except ValueError:
                        got = False
                    assert got == want, (n, dmin, dmax, emin, emax)
        assert windows == 4196

    def test_degree_window_bounds_the_edge_window(self):
        spec = SearchSpec(n=10, degree_min=2, degree_max=3)
        assert (spec.edge_min, spec.edge_max) == (10, 15)
        spec = SearchSpec(n=8, degree_min=4, degree_max=5, edge_max=30, d_sparse_filter=3)
        assert (spec.edge_min, spec.edge_max) == (16, 18)

    def test_empty_and_tiny(self):
        assert [g.n for g in enumerate_constrained(SearchSpec(n=0))] == [0]
        out = list(enumerate_constrained(SearchSpec(n=1)))
        assert len(out) == 1 and out[0].n == 1
        # K_0 and K_1 have at most k vertices, so neither is k-connected
        for n, k in itertools.product((0, 1), (1, 2)):
            assert list(enumerate_constrained(SearchSpec(n=n, connectivity_min=k))) == []

    def test_no_duplicates_across_stream(self):
        spec = SearchSpec(n=8, degree_min=3, degree_max=4)
        seen = set()
        for g in enumerate_constrained(spec):
            code = canonical_code(g)
            assert code not in seen
            seen.add(code)


class TestPartition:
    def test_shards_partition_the_stream(self):
        for spec, classes in (
            (SearchSpec(n=8, degree_min=3, degree_max=3), 6),
            # a window with no edges is the root alone, which is shard 0's
            (SearchSpec(n=4, edge_max=0), 1),
            (SearchSpec(n=0), 1),
            # matchings: an edge ceiling of 3 hands subtrees off at depth 3
            (SearchSpec(n=6, degree_max=1), 4),
        ):
            full = {canonical_code(g) for g in enumerate_constrained(spec)}
            pieces = [{canonical_code(g)
                       for g in enumerate_constrained(spec, partition=(i, 3))}
                      for i in range(3)]
            assert len(full) == classes
            assert set().union(*pieces) == full
            assert sum(len(p) for p in pieces) == classes

    def test_shards_partition_regular(self):
        full = {canonical_code(g) for g in enumerate_regular(10, 3)}
        pieces = [
            {canonical_code(g) for g in enumerate_regular(10, 3, partition=(i, 4))}
            for i in range(4)
        ]
        assert set().union(*pieces) == full
        assert sum(len(p) for p in pieces) == len(full)

    @pytest.mark.parametrize("spec", [
        SearchSpec(n=10, degree_min=2, degree_max=3),  # direct branch
        SearchSpec(n=8, degree_min=4, d_sparse_filter=3),  # complement branch
    ])
    @pytest.mark.parametrize("m", [2, 3, 4, 7])
    def test_shards_keep_emission_order(self, spec, m):
        # each shard is a subsequence of the whole stream, and together the
        # shards cover it once
        stream = [g.to_graph6() for g in enumerate_constrained(spec)]
        position = {g6: k for k, g6 in enumerate(stream)}
        seen = []
        for i in range(m):
            shard = [position[g.to_graph6()]
                     for g in enumerate_constrained(spec, partition=(i, m))]
            assert shard == sorted(shard)
            seen += shard
        assert sorted(seen) == list(range(len(stream)))

    @pytest.mark.parametrize("spec, shards", [
        (SearchSpec(n=10, degree_min=2, degree_max=3),
         ["4687f10547ffdd151be65ebe4b1eadf551b6c1c9", _EMPTY, _EMPTY, _EMPTY]),
        (SearchSpec(n=9, degree_min=2, degree_max=3),
         [_EMPTY, "39dd2abbed9e0781cf0ed28975d8a77366dfbaf0",
          "4d663139c655b344a29260a11ddb76a5b33d8058", _EMPTY]),
        (SearchSpec(n=9, degree_min=5, degree_max=6),  # complement branch
         [_EMPTY, "55be5960aef3a4661e6b12734238020b835c87e6",
          "f5bd9fd6972bcf5bb8f2fc7a84af6aca6cb2377b", _EMPTY]),
    ])
    def test_degree_window_shards_are_pinned(self, spec, shards):
        # sha1 of each i/4 shard's graph6 lines, as streamed when the edge
        # window was left unbounded: the edge bounds the degrees imply move
        # no graph between shards
        assert [_sha1(enumerate_constrained(spec, partition=(i, 4))) for i in range(4)] == shards

    def test_bad_partition_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_regular(6, 3, partition=(3, 3)))

    def test_shard_contents_are_pinned(self):
        # sha1 of each shard's graph6 lines, in stream order
        got = [_sha1(enumerate_regular(6, 3, partition=(i, 3))) for i in range(3)]
        assert got == ["da39a3ee5e6b4b0d3255bfef95601890afd80709",  # empty
                       "27cc92c74bc455ce86279b8a8c3355b1112cc5fa",  # EFz_
                       "88e0af14243f65d05799e02530e9e9e8c2a5f110"]  # ELv_

    def test_order_depends_on_the_group_not_the_generators(self, monkeypatch):
        # canon_raw may return any generating set of Aut(G): a reversed list
        # padded with products must leave stream order and shards unchanged
        def other_gens(adj, n):
            code, perm, gens = canon_raw(adj, n)
            prods = [tuple(a[b[v]] for v in range(n)) for a in gens for b in gens[:2]]
            return code, perm, gens[::-1] + prods

        spec = SearchSpec(n=10, degree_min=2, degree_max=3)
        want = _sha1(enumerate_constrained(spec))
        shards = [_sha1(enumerate_regular(6, 3, partition=(i, 3))) for i in range(3)]
        monkeypatch.setattr("rigikit.enumeration.canon_raw", other_gens)
        assert _sha1(enumerate_constrained(spec)) == want
        assert [_sha1(enumerate_regular(6, 3, partition=(i, 3))) for i in range(3)] == shards


def _count_calls(monkeypatch) -> dict[str, int]:
    """Counts the generator's `_max_key_ties` and `canon_raw` calls from now on."""
    calls = {"ties": 0, "canon": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr("rigikit.enumeration._max_key_ties", counting("ties", _max_key_ties))
    monkeypatch.setattr("rigikit.enumeration.canon_raw", counting("canon", canon_raw))
    return calls


def _sha1(stream) -> str:
    return hashlib.sha1("\n".join(g.to_graph6() for g in stream).encode("ascii")).hexdigest()


def stream_codes(stream):
    """The canonical codes of a stream, checking that each graph is emitted
    in its canonical form and that no class repeats. The classifier matches
    the stream's graph6 against canonical codes, so it relies on the first."""
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
        SearchSpec(n=8, degree_min=4, d_sparse_filter=3),  # d=3 window, complement branch
        SearchSpec(n=7, degree_min=3, degree_max=6),  # complement branch
    ])
    def test_emitted_graphs_are_canonical_and_distinct(self, spec):
        assert stream_codes(enumerate_constrained(spec))

    def test_key_check_budget(self, monkeypatch):
        # the parent's top edge key rejects most children before they are
        # built; a child that neither emits nor has a candidate edge left is
        # dropped before it is canonized. The degree floor is an edge floor
        # of 10, so the edge-floor prune drops nodes too (3,236 without it)
        calls = _count_calls(monkeypatch)
        out = list(enumerate_constrained(SearchSpec(n=10, degree_min=2, degree_max=3)))
        assert len(out) == 525
        assert calls["ties"] <= 9300
        assert calls["canon"] == 3148

    def test_complement_branch_work_and_shards_are_pinned(self, monkeypatch):
        # the branch the classification windows take: dead ends and nodes
        # that cannot reach the edge floor skip canonization at every depth,
        # since a shard is dealt by its root's canonical code alone. The canon
        # count includes each class's re-canonization on the direct side
        spec = SearchSpec(n=8, degree_min=4, edge_min=16, d_sparse_filter=3)
        calls = _count_calls(monkeypatch)
        assert len(list(enumerate_constrained(spec))) == 94
        assert calls == {"ties": 769, "canon": 399}
        # sha1 of each shard's graph6 lines, in stream order
        got = [_sha1(enumerate_constrained(spec, partition=(i, 4))) for i in range(4)]
        assert got == ["67e534e6554a775085f6b9f67ded24ece69d3048",
                       "da39a3ee5e6b4b0d3255bfef95601890afd80709",  # empty
                       "fb2bccd7fc052f88b7cbb07f242eb0eb88707e41",
                       "da39a3ee5e6b4b0d3255bfef95601890afd80709"]  # empty

    def test_output_is_pinned(self):
        # sha1 of the sorted graph6 stream: the canonical form must not drift
        out = sorted(g.to_graph6() for g in
                     enumerate_constrained(SearchSpec(n=10, degree_min=2, degree_max=3)))
        assert len(out) == 525
        assert (hashlib.sha1("\n".join(out).encode("ascii")).hexdigest()
                == "2a7994d81012cc40d2f5aeeb73bef4f487339794")

    def test_stream_order_is_pinned(self):
        # sha1 of the same stream in emission order: the order must not drift
        spec = SearchSpec(n=10, degree_min=2, degree_max=3)
        assert _sha1(enumerate_constrained(spec)) == "4687f10547ffdd151be65ebe4b1eadf551b6c1c9"


def _vertex_keys(adj, n):
    """Each vertex's (degree, sum of neighbour degrees), packed into one int
    that orders like the pair (the sum is below n*n): the key definition
    the generator's incremental keys are checked against."""
    degs = [a.bit_count() for a in adj]
    return [degs[w] * n * n + sum(degs[x] for x in range(n) if adj[w] >> x & 1)
            for w in range(n)]


def _edge_key(adj, keys, a, b):
    """The sorted endpoint keys of edge ab, then its common-neighbour count."""
    ka, kb = sorted((keys[a], keys[b]))
    return (ka, kb, (adj[a] & adj[b]).bit_count())


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

    @given(graphs(min_n=2))
    def test_parent_top_bounds_every_child(self, g):
        # adding an edge lowers no key, so a new edge whose key is below the
        # parent's largest edge key never passes the exact check
        adj, degs, n = list(g.adj), list(g.degrees), g.n
        keys = _vertex_keys(adj, n)
        top = max((_edge_key(adj, keys, *e) for e in g.edges), default=(-1, -1, -1))
        # a degree cap of n-1 admits every non-edge
        every = _candidates(adj, degs, keys, (-1, -1, -1), n - 1, n)
        non_edges = [e for e in itertools.combinations(range(n), 2) if not g.has_edge(*e)]
        assert list(every) == sorted(non_edges, key=lambda e: (e[1], e[0]))
        bounded = _candidates(adj, degs, keys, top, n - 1, n)
        for (u, v), key in every.items():
            child = g.with_edge(u, v)
            ckeys = _vertex_keys(list(child.adj), n)
            assert key == _edge_key(child.adj, ckeys, u, v)
            ties = _max_key_ties(list(child.adj), ckeys, u, v)
            if key < top:
                assert ties is None
                assert (u, v) not in bounded
            else:
                assert bounded[(u, v)] == key
            if ties is not None:
                # the key passed down is the child's top
                assert key == max(_edge_key(child.adj, ckeys, *e) for e in child.edges)


class TestEdgeFloor:
    """A node is dropped when its vertices that the top edge key has not
    frozen lack the degree room for the edges the floor still needs. That
    must cut work only: a window with an edge floor emits the floor-free
    window's stream less the graphs outside the window, in the same order
    and in the same shards. A degree floor implies an edge floor, so the
    floor-free partner has none on the generated side."""

    @pytest.mark.parametrize("floored, floorless", [
        # direct branch: an edge floor, and a regular window's implied floor
        (SearchSpec(n=8, degree_min=2, degree_max=4, edge_min=13),
         SearchSpec(n=8, degree_max=4)),
        (SearchSpec(n=10, degree_min=3, degree_max=3), SearchSpec(n=10, degree_max=3)),
        # complement branch: a ceiling on G is a floor on its complement
        (SearchSpec(n=9, degree_min=5, edge_max=26), SearchSpec(n=9, degree_min=5)),
        (SearchSpec(n=10, degree_min=6, degree_max=6), SearchSpec(n=10, degree_min=6)),
    ])
    @pytest.mark.parametrize("partition", [
        (0, 1), (0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4),
    ])
    def test_floor_cuts_the_floorless_stream(self, floored, floorless, partition):
        lo, hi = floored.edge_min, floored.edge_max
        want = [g.to_graph6() for g in enumerate_constrained(floorless, partition)
                if lo <= g.m <= hi
                and floored.degree_min <= min(g.degrees) <= max(g.degrees) <= floored.degree_max]
        got = [g.to_graph6() for g in enumerate_constrained(floored, partition)]
        assert got == want

    def test_regular_budget(self, monkeypatch):
        # a cubic window's vertices freeze once the top key outgrows them
        calls = _count_calls(monkeypatch)
        assert len(list(enumerate_regular(12, 3))) == 94
        assert calls["canon"] <= 8200  # 36,703 without the floor prune

    @pytest.mark.slow
    def test_d3_window_budget(self, monkeypatch):
        # the classify-d3 windows, n <= 9: min degree 4, so at least 2n
        # edges, and d=3 sparsity, so at most 3n - 6; both hold from n = 6
        calls = _count_calls(monkeypatch)
        survivors = 0
        for n in range(6, 10):
            spec = SearchSpec(n=n, degree_min=4, edge_min=2 * n, d_sparse_filter=3)
            survivors += sum(1 for _ in enumerate_constrained(spec))
        assert survivors == 2709
        assert calls["canon"] <= 13200  # 16,640 without the floor prune
