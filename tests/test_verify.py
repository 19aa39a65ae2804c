import json
import random
from collections import Counter

import pytest

from rigikit import is_independent, verify
from rigikit.enumeration import enumerate_regular
from rigikit.rigidity import CERT_DEPENDENT_COUNT
from rigikit.verify import (
    STATUS_FAIL,
    STATUS_PASS,
    STATUS_UNRESOLVED,
    VerificationReport,
    classify_flexible_circuits,
    default_seed,
    verify_edge_bound,
    verify_families,
    verify_regular_independence,
    verify_structure_suites,
)


def strip_time(payload: dict) -> dict:
    out = dict(payload)
    out.pop("wall_time_s")
    return out


class TestReportMechanics:
    def test_exit_codes(self):
        for status, code in [(STATUS_PASS, 0), (STATUS_FAIL, 1), (STATUS_UNRESOLVED, 2)]:
            r = VerificationReport(claim="x", status=status, seed=0, instances=0)
            assert r.exit_code() == code

    def test_status_precedence(self):
        from rigikit.verify import _finish
        import time

        t0 = time.perf_counter()
        r = _finish("x", 0, [{"ok": True}, {"ok": None}], t0)
        assert r.status == STATUS_UNRESOLVED
        r = _finish("x", 0, [{"ok": None}, {"ok": False}], t0)
        assert r.status == STATUS_FAIL
        r = _finish("x", 0, [{"ok": True}], t0)
        assert r.status == STATUS_PASS

    def test_instances_count_each_check_once_or_by_its_own_count(self):
        from rigikit.verify import _finish
        import time

        checks = [{"ok": True, "instances": 7}, {"ok": True}, {"ok": True, "instances": 0}]
        assert _finish("x", 0, checks, time.perf_counter()).instances == 8

    def test_run_all_calls_each_runner_as_the_claim_mapping(self, monkeypatch):
        # the runners are replaced by recorders, so no claim runs; `all`
        # leaves classify-d4 out and hands the edge bound its classification
        import inspect

        calls = []

        def recorder(fn):
            sig = inspect.signature(fn)

            def record(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                calls.append((fn.__name__, dict(bound.arguments)))
                report = VerificationReport(claim=fn.__name__, status=STATUS_PASS,
                                            seed=0, instances=0)
                return (report, ["found"]) if fn is classify_flexible_circuits else report
            return record

        for fn in (verify_regular_independence, verify_families, classify_flexible_circuits,
                   verify_edge_bound, verify_structure_suites):
            monkeypatch.setattr(verify, fn.__name__, recorder(fn))
        verify.run_all(seed=5)
        from_all = calls[:]
        calls.clear()
        for name, runner in verify.CLAIMS.items():
            if name != "classify-d4":
                runner(5, (0, 1))
        assert len(from_all) == len(calls) == 6
        name, kwargs = from_all[4]
        assert name == "verify_edge_bound" and kwargs["classification"] == ["found"]
        kwargs["classification"] = None
        assert from_all == calls

    def test_default_seed_env(self, monkeypatch):
        monkeypatch.setenv("RIGIKIT_SEED", "12345")
        assert default_seed() == 12345

    def test_reports_reproducible(self):
        a = verify_families(3, seed=42)
        b = verify_families(3, seed=42)
        assert strip_time(a.to_json()) == strip_time(b.to_json())

    def test_edge_deletion_counts_the_graphs_it_checks(self):
        # verify_structure_suites(seed) draws this suite from seed + 3; at
        # seed 2 draw #37 is an edgeless graph, which is skipped
        assert verify._suite_edge_deletion(random.Random(2 + 3))["instances"] == 49
        assert verify._suite_edge_deletion(random.Random(20260801 + 3))["instances"] == 50

    def test_classification_reproducible(self):
        a = classify_flexible_circuits(3, 7, seed=1)
        b = classify_flexible_circuits(3, 7, seed=1)
        assert strip_time(a[0].to_json()) == strip_time(b[0].to_json())
        assert a[1] == b[1] == []


class TestFamilies:
    def test_each_fact_once_per_member(self, monkeypatch):
        # the report reads the cuts from the verdicts it runs: across verify
        # and rigidity a member gets at most one cut search and one sparsity
        # sweep per verdict
        import rigikit.rigidity as rigidity

        assert not hasattr(verify, "is_d_sparse")
        calls = Counter()

        for mod, name in ((verify, "small_cut"), (rigidity, "small_cut"),
                          (rigidity, "is_d_sparse")):
            def wrapped(g, d, _name=name, _fn=getattr(mod, name)):
                calls[_name, g.to_graph6()] += 1
                return _fn(g, d)
            monkeypatch.setattr(mod, name, wrapped)

        class CountedFacts(rigidity._Facts):
            def __init__(self, g, d):
                calls["verdict", g.to_graph6()] += 1
                super().__init__(g, d)
        monkeypatch.setattr(rigidity, "_Facts", CountedFacts)

        assert verify_families(4, seed=1).status == STATUS_PASS
        members = [g.to_graph6() for d in (3, 4) for _, g in verify._flexible_families(d)]
        assert len(members) == 14
        for g6 in members:
            for name in ("small_cut", "is_d_sparse"):
                assert calls[name, g6] <= calls["verdict", g6], (name, g6)


class TestMutation:
    def test_corrupted_regular_graph_fails_sparsity(self):
        # adding any edge to a 6-regular graph on 10 vertices breaks the
        # d=4 count bound (31 > 30 = 4*10-10), so independence must fail
        g = next(iter(enumerate_regular(10, 6)))
        u, v = next(
            (u, v) for u in range(10) for v in range(u + 1, 10) if not g.has_edge(u, v)
        )
        bad = g.with_edge(u, v)
        ok, verdict = is_independent(bad, 4)
        assert ok is False
        assert verdict.certificate.kind == CERT_DEPENDENT_COUNT

    def test_failing_instance_fails_report(self):
        from rigikit.verify import _finish
        import time

        checks = [{"name": "good", "ok": True}, {"name": "bad", "ok": False}]
        r = _finish("mutated", 0, checks, time.perf_counter())
        assert r.status == STATUS_FAIL and r.exit_code() == 1


class TestScope:
    def test_classify_supported_dimensions(self):
        with pytest.raises(ValueError):
            classify_flexible_circuits(5, 9)
        with pytest.raises(ValueError):
            classify_flexible_circuits(3, 10)
        with pytest.raises(ValueError):
            classify_flexible_circuits(4, 11)

    def test_small_windows(self):
        rep, found = classify_flexible_circuits(3, 7, seed=0)
        assert rep.status == STATUS_PASS and found == []
        rep, found = classify_flexible_circuits(3, 8, seed=0)
        assert rep.status == STATUS_PASS and len(found) == 1

    def test_shard_reports_check_the_family_list(self, monkeypatch):
        # a shard that reports a flexible circuit outside the named families
        # fails, though it cannot check that it found all of them
        real = verify.is_flexible_circuit
        flagged = []

        def flag_first(g, d, **kwargs):
            flex, v = real(g, d, **kwargs)
            if not flagged:
                flagged.append(g)
                return True, v
            return flex, v
        monkeypatch.setattr(verify, "is_flexible_circuit", flag_first)

        for i in range(4):
            flagged.clear()
            rep, _ = classify_flexible_circuits(3, 8, seed=1, partition=(i, 4))
            assert flagged, i
            assert rep.status == STATUS_FAIL, i
            check = rep.details[-1]
            assert check["name"] == "within-constructed-families" and check["ok"] is False

    def test_unresolved_survivor_fails_closed(self, monkeypatch):
        # an oracle that cannot decide one survivor leaves the whole report
        # unresolved, never pass
        real = verify.is_flexible_circuit
        calls = []

        def undecided_first(g, d, **kwargs):
            flex, v = real(g, d, **kwargs)
            calls.append(g)
            return (None, v) if len(calls) == 1 else (flex, v)
        monkeypatch.setattr(verify, "is_flexible_circuit", undecided_first)

        rep, found = classify_flexible_circuits(3, 7, seed=1)
        assert rep.status == STATUS_UNRESOLVED and rep.exit_code() == 2
        unresolved = [c for c in rep.details if c["name"].startswith("unresolved-")]
        assert [(c["name"], c["ok"]) for c in unresolved] == [("unresolved-#1", None)]
        assert found == []

    def test_edge_bound_formula_only(self):
        # supply a fake classification so the unit test stays fast
        from rigikit import canonical_code
        from rigikit.constructions import build_glued_cliques

        b32 = canonical_code(build_glued_cliques(3, 2).graph).decode("ascii")
        r = verify_edge_bound(8, seed=0, classification=[b32])
        assert r.status == STATUS_PASS
        counts = [c for c in r.details if c["name"].startswith("edge-count")]
        assert [c["edges"] for c in counts] == [18, 26, 35, 45, 56, 68]


class TestFaultInjection:
    """An elimination that undercounts rank by one must turn every report
    to fail or unresolved, never to pass."""

    @pytest.fixture
    def undercounting(self, monkeypatch):
        import rigikit.rigidity as rigidity

        plain, with_null = rigidity.rank_mod_p, rigidity.rank_and_left_null_mod_p

        def rank(rows, p=rigidity.DEFAULT_PRIME):
            return max(plain(rows, p) - 1, 0)

        def rank_and_null(rows, p=rigidity.DEFAULT_PRIME):
            r, null = with_null(rows, p)
            return max(r - 1, 0), null

        monkeypatch.setattr(rigidity, "rank_mod_p", rank)
        monkeypatch.setattr(rigidity, "rank_and_left_null_mod_p", rank_and_null)
        # the degree-2/3 suite never calls the oracle and takes most of the
        # structure report's time; the other suites must fail it on their own
        monkeypatch.setattr(verify, "_suite_deg23",
                            lambda: verify._suite("degree-2-3-distance", 0, []))

    def test_no_report_passes(self, undercounting):
        rep, found = classify_flexible_circuits(3, 8, seed=1)
        reports = [
            verify_regular_independence(1, seed=1),
            verify_regular_independence(2, seed=1),
            verify_families(5, seed=1),
            rep,
            verify_edge_bound(8, seed=1, classification=found),
            verify_structure_suites(seed=1),
        ]
        for r in reports:
            assert r.status in (STATUS_FAIL, STATUS_UNRESOLVED), r.claim
