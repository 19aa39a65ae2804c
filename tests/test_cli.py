import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rigikit
from rigikit import Graph, complete_bipartite, complete_graph, canonical_code
from rigikit.cli import main
from rigikit.constructions import build_glued_cliques
from rigikit.verify import CLAIMS, SHARDED


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestFamily:
    def test_glued_cliques(self, capsys):
        code, out = run(capsys, ["family", "glued-cliques", "-d", "3", "-t", "2"])
        assert code == 0
        payload = json.loads(out)
        assert Graph.from_graph6(payload["graph6"]).m == 18
        assert payload["roles"]["removed_edge"] == [3, 4]

    def test_glued_cliques_plus_count(self, capsys):
        code, out = run(capsys, ["family", "glued-cliques-plus", "-d", "3",
                                 "--format", "g6"])
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_complete(self, capsys):
        # the default --format json prints the graph6 with empty roles
        code, out = run(capsys, ["family", "complete", "--n", "5"])
        assert code == 0
        payload = json.loads(out)
        assert Graph.from_graph6(payload["graph6"]) == complete_graph(5)
        assert payload["roles"] == {}

    @pytest.mark.parametrize("argv, graph", [
        (["complete", "--n", "5"], complete_graph(5)),
        (["complete-bipartite", "--parts", "2", "3"], complete_bipartite(2, 3)),
    ])
    def test_g6_format(self, capsys, argv, graph):
        code, out = run(capsys, ["family", *argv, "--format", "g6"])
        assert code == 0
        assert out == graph.to_graph6() + "\n"


    @pytest.mark.parametrize("argv, builder", [
        (["complete", "--n", "63"], "complete_graph"),
        (["complete-bipartite", "--parts", "31", "32"], "complete_bipartite"),
        (["glued-cliques", "-d", "31", "-t", "3"], "build_glued_cliques"),
        (["glued-cliques-plus", "-d", "57"], "enumerate_glued_cliques_plus"),
    ])
    def test_beyond_graph6_refused_before_building(self, capsys, monkeypatch, argv, builder):
        # 63 vertices, one more than graph6 holds
        def unreachable(*args):
            raise AssertionError(f"{builder} ran")

        monkeypatch.setattr(f"rigikit.cli.{builder}", unreachable)
        code, out = run(capsys, ["family", *argv])
        assert (code, out) == (3, "")

    def test_graph6_limit_is_inclusive(self, capsys):
        code, out = run(capsys, ["family", "complete", "--n", "62", "--format", "g6"])
        assert code == 0
        assert out == complete_graph(62).to_graph6() + "\n"


class TestCheck:
    def test_k5_circuit(self, capsys, monkeypatch):
        g6 = complete_graph(5).to_graph6()
        code, out = run(capsys, ["check", "circuit", "-d", "3"],
                        stdin=g6 + "\n", monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["value"] is True

    def test_unresolved_exit_code(self, capsys, monkeypatch):
        g6 = build_glued_cliques(4, 2).graph.to_graph6()
        code, out = run(capsys, ["check", "circuit", "-d", "4", "--trials", "1",
                                 "--threshold", "0.0"],
                        stdin=g6 + "\n", monkeypatch=monkeypatch)
        assert code == 2
        assert json.loads(out)["value"] is None

    def test_rank_output(self, capsys, monkeypatch):
        g6 = complete_graph(5).to_graph6()
        code, out = run(capsys, ["rank", "-d", "3"],
                        stdin=g6 + "\n", monkeypatch=monkeypatch)
        payload = json.loads(out)
        assert payload["rank_lb"] == 9
        assert payload["count_ub"] == 9
        assert payload["graph6"] == g6

    def test_rank_honours_threshold(self, capsys, monkeypatch):
        # one trial on a dependent graph leaves a Monte Carlo bound of ~6e-18:
        # above the default threshold, below a threshold of 1
        g6 = build_glued_cliques(4, 2).graph.to_graph6()
        argv = ["rank", "-d", "4", "--trials", "1", "--seed", "3"]
        _, out = run(capsys, argv, stdin=g6 + "\n", monkeypatch=monkeypatch)
        assert json.loads(out)["flags"]["independent"] is None
        _, out = run(capsys, argv + ["--threshold", "1.0"], stdin=g6 + "\n",
                     monkeypatch=monkeypatch)
        assert json.loads(out)["flags"]["independent"] is False

    def test_rank_text_is_one_readable_line(self, capsys, monkeypatch):
        g6 = complete_graph(5).to_graph6()
        code, out = run(capsys, ["rank", "-d", "3", "--format", "text"],
                        stdin=g6 + "\n", monkeypatch=monkeypatch)
        assert code == 0
        assert out == (f"{g6} d=3 rank>=9 count<=9 independent=no rigid=yes "
                       "circuit=unresolved flexible_circuit=unresolved "
                       "certificate=deterministic-dependent-count\n")

    def test_check_text_line(self, capsys, monkeypatch):
        g6 = complete_graph(5).to_graph6()
        code, out = run(capsys, ["check", "circuit", "-d", "3", "--format", "text"],
                        stdin=g6 + "\n", monkeypatch=monkeypatch)
        assert code == 0
        assert out.startswith(f"circuit=yes {g6} d=3 rank>=9 ")
        assert out.count("\n") == 1

    @pytest.mark.parametrize("cmd", [["rank"], ["check", "rigid"]])
    def test_g6_format_rejected(self, capsys, cmd):
        with pytest.raises(SystemExit) as exc:
            main(cmd + ["--format", "g6"])
        assert exc.value.code == 3

    def test_input_file_is_closed(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "in.g6"
        path.write_text(complete_graph(5).to_graph6() + "\n")
        opened = []

        def spy(*args, **kwargs):
            handle = open(*args, **kwargs)
            opened.append(handle)
            return handle

        monkeypatch.setattr("rigikit.cli.open", spy, raising=False)
        code, out = run(capsys, ["rank", "-d", "3", "-i", str(path)])
        assert code == 0 and json.loads(out)["rank_lb"] == 9
        assert len(opened) == 1 and opened[0].closed


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["enumerate", "--n", "5", "--partition", "x"],
        ["enumerate"],
        ["no-such-command"],
        ["check", "planar"],
        ["verify", "no-such-claim"],
    ])
    def test_rejected_command_line_exits_3(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,copies", [
        (["op", "contract", "--edge", "9", "0"], 1),
        (["op", "two-sum", "--edge", "9", "0"], 2),
        (["op", "vertex-split", "--vertex", "9", "--hinge", "1", "2"], 1),
        (["family", "complete-bipartite", "--parts", "-1", "2"], 0),
    ])
    def test_out_of_range_argument_exits_3(self, capsys, monkeypatch, argv, copies):
        # K_5 has no vertex 9, and no graph has a part of -1 vertices
        monkeypatch.setattr("sys.stdin", io.StringIO("D~{\n" * copies))
        assert main(argv) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("claim, shard", [
        ("flexible-families", "1/2"),
        ("edge-bound", "1/4"),
        ("structure-suites", "0/2"),
        ("all", "0/2"),
    ])
    def test_whole_claim_refuses_a_partition(self, capsys, claim, shard):
        # refused before the claim runs: nothing reaches stdout
        assert main(["verify", claim, "--partition", shard]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert all(name in err for name in SHARDED)

    def test_sharded_claim_takes_a_partition(self, capsys):
        code, out = run(capsys, ["verify", "classify-d3", "--partition", "0/4"])
        assert code == 0
        assert json.loads(out)["details"][-1]["name"] == "within-constructed-families"

    @pytest.mark.parametrize("flags, message", [
        (["--sparse", "0"], "dimension must be >= 1"),
        (["--sparse", "-1"], "dimension must be >= 1"),
        (["--edge-max", "-3"], "infeasible edge window"),
        (["--edge-min", "-1"], "infeasible edge window"),
        (["--degree-max", "1", "--edge-min", "3"],
         "infeasible edge window [3, 2] for degrees [0, 1] on 5 vertices"),
        (["--regular", "2", "--degree-min", "5"], "--regular sets the degree and edge window"),
        (["--regular", "2", "--edge-max", "5"], "--regular sets the degree and edge window"),
        (["--regular", "3"], "infeasible edge window [8, 7] for degrees [3, 3] on 5 vertices"),
    ])
    def test_enumeration_window_rejected_with_its_cause(self, capsys, flags, message):
        assert main(["enumerate", "--n", "5", *flags]) == 3
        out, err = capsys.readouterr()
        assert out == "" and message in err

    @pytest.mark.parametrize("flags", [[], ["--degree-min", "4", "--sparse", "3"]])
    def test_enumeration_beyond_graph6_refused_before_generating(self, capsys, monkeypatch,
                                                                   flags):
        # every line is graph6, which holds at most 62 vertices
        def unreachable(*args, **kwargs):
            raise AssertionError("the generator ran")

        with monkeypatch.context() as patched:
            patched.setattr("rigikit.cli.enumerate_constrained", unreachable)
            assert main(["enumerate", "--n", "63", *flags]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "error: enumerate --n 63: graph6 holds at most 62 vertices\n"
        code, out = run(capsys, ["enumerate", "--n", "62", "--edge-max", "0"])
        assert code == 0 and out == Graph(62).to_graph6() + "\n"

    @pytest.mark.parametrize("argv", [["rank"], ["check", "rigid"]])
    def test_oversized_dimension_refused_before_a_point(self, capsys, monkeypatch, argv):
        # K_5 at d=201 has 1,005 coordinates per point, above the limit of
        # 1,000; at d=200 it is answered
        def unreachable(*args):
            raise AssertionError("a point was drawn")

        g6 = complete_graph(5).to_graph6()
        monkeypatch.setattr("sys.stdin", io.StringIO(g6 + "\n"))
        with monkeypatch.context() as patched:
            patched.setattr("rigikit.rigidity._point", unreachable)
            assert main(argv + ["-d", "201"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "error: d*|V| = 201*5 exceeds 1000\n"
        code, out = run(capsys, argv + ["-d", "200"], stdin=g6 + "\n",
                        monkeypatch=monkeypatch)
        assert code == 0 and json.loads(out)["rank_lb"] == 10

    def test_sparsity_search_too_large_exits_3(self, capsys, monkeypatch):
        # two disjoint K_11 are dependent at d=3 and their own 4-core of 22
        # vertices; their rank, 54, falls short of the count 60, so no point
        # settles the sparsity report and the search is refused: a valid
        # input out of range, refused with one line and no traceback
        k11 = tuple(itertools.combinations(range(11), 2))
        g = Graph(22, k11 + tuple((u + 11, v + 11) for u, v in k11))
        for argv in (["check", "independent"], ["rank", "-d", "3"]):
            monkeypatch.setattr("sys.stdin", io.StringIO(g.to_graph6() + "\n"))
            assert main(argv) == 3
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: subset search limited to a (d+1)-core of <= 20 vertices\n"

    def test_rank_at_the_count_needs_no_search(self, capsys, monkeypatch):
        # K_22 at d=3 is its own 4-core of 22 vertices too, but its point
        # meets the count 60 < |E|, so V is the largest violator with no search
        g6 = complete_graph(22).to_graph6()
        for argv in (["check", "independent"], ["rank", "-d", "3"]):
            code, out = run(capsys, argv + ["--seed", "1"], stdin=g6 + "\n",
                            monkeypatch=monkeypatch)
            assert code == 0
            v = json.loads(out)
            assert v["rank_lb"] == v["count_ub"] == 60 and v["primes"] == [32749]
            assert v["certificate"] == {"kind": "deterministic-dependent-count",
                                        "witness": list(range(22))}
            assert v["flags"]["independent"] is False and v["flags"]["rigid"] is True


class TestOps:
    def test_cone(self, capsys, monkeypatch):
        g6 = complete_graph(4).to_graph6()
        code, out = run(capsys, ["op", "cone"], stdin=g6 + "\n", monkeypatch=monkeypatch)
        assert Graph.from_graph6(out.strip()) == complete_graph(5)

    def test_two_sum(self, capsys, monkeypatch):
        g6 = complete_graph(5).to_graph6()
        code, out = run(capsys, ["op", "two-sum", "--edge", "3", "4"],
                        stdin=g6 + "\n" + g6 + "\n", monkeypatch=monkeypatch)
        got = Graph.from_graph6(out.strip())
        assert canonical_code(got) == canonical_code(build_glued_cliques(3, 2).graph)

    @pytest.mark.parametrize("argv", [
        ["contract"],
        ["zero-extension"],
        ["one-extension", "--neighbors", "0", "1", "2", "3"],
        ["vertex-split", "--vertex", "0"],
        ["two-sum"],
        ["t-sum", "--edge", "0", "1"],
    ], ids=lambda argv: argv[0])
    def test_missing_flag_refused_before_reading(self, capsys, monkeypatch, argv):
        # a terminal on stdin would block until EOF; this one fails if read
        class Unreadable(io.StringIO):
            def read(self, *args):
                raise AssertionError("stdin was read")

            readline = read

            def __iter__(self):
                raise AssertionError("stdin was read")

        monkeypatch.setattr("sys.stdin", Unreadable())
        assert main(["op", *argv]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {argv[0]} needs --")

    @pytest.mark.parametrize("argv, summand, copies, want", [
        pytest.param(["zero-extension", "--neighbors", "0", "1", "2"], complete_graph(4), 1,
                     Graph(5, complete_graph(4).edges + ((0, 4), (1, 4), (2, 4))),
                     id="zero-extension"),
        # K_4 less the edge 01, plus a vertex joined to all four: K_5 less 01
        pytest.param(["one-extension", "--neighbors", "0", "1", "2", "3", "--removed", "0", "1"],
                     complete_graph(4), 1, complete_graph(5).without_edge(0, 1),
                     id="one-extension"),
        # two K_5 glued along the triangle 012, less the edge 01; the second
        # summand's vertices 3 and 4 become 5 and 6
        pytest.param(["t-sum", "--shared", "0", "1", "2", "--edge", "0", "1"],
                     complete_graph(5), 2,
                     Graph(7, complete_graph(5).edges
                           + tuple(itertools.combinations((0, 1, 2, 5, 6), 2))).without_edge(0, 1),
                     id="t-sum"),
    ])
    def test_extension_and_t_sum(self, capsys, monkeypatch, argv, summand, copies, want):
        code, out = run(capsys, ["op", *argv], stdin=(summand.to_graph6() + "\n") * copies,
                        monkeypatch=monkeypatch)
        assert code == 0
        assert Graph.from_graph6(out.strip()) == want

    @pytest.mark.parametrize("argv, copies", [(["cone"], 1), (["two-sum", "--edge", "0", "1"], 2)])
    def test_result_beyond_graph6_exits_3(self, capsys, monkeypatch, argv, copies):
        # the cone on K_62 has 63 vertices, the 2-sum of two K_62 has 122
        g6 = complete_graph(62).to_graph6()
        code, out = run(capsys, ["op", *argv], stdin=(g6 + "\n") * copies,
                        monkeypatch=monkeypatch)
        assert (code, out) == (3, "")

    def test_complement(self, capsys, monkeypatch):
        g6 = complete_graph(4).to_graph6()
        code, out = run(capsys, ["op", "complement"], stdin=g6 + "\n",
                        monkeypatch=monkeypatch)
        assert Graph.from_graph6(out.strip()).m == 0


class TestEnumerate:
    def test_regular_stream(self, capsys):
        code, out = run(capsys, ["enumerate", "--n", "6", "--regular", "3"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            assert set(Graph.from_graph6(line).degrees) == {3}

    def test_partition_flag(self, capsys):
        _, all_out = run(capsys, ["enumerate", "--n", "8", "--regular", "3"])
        full = set(all_out.strip().splitlines())
        parts = set()
        for i in range(2):
            _, out = run(capsys, ["enumerate", "--n", "8", "--regular", "3",
                                  "--partition", f"{i}/2"])
            parts |= set(out.strip().splitlines())
        assert parts == full

    def test_infeasible_is_usage_error(self, capsys):
        code, _ = run(capsys, ["enumerate", "--n", "5", "--regular", "3"])
        assert code == 3

    def test_regular_is_the_window_and_takes_the_filters(self, capsys):
        # 4 of the 6 cubic graphs on 8 vertices are 3-connected
        code, window = run(capsys, ["enumerate", "--n", "8", "--degree-min", "3",
                                    "--degree-max", "3", "--connectivity", "3"])
        assert code == 0 and len(window.splitlines()) == 4
        code, out = run(capsys, ["enumerate", "--n", "8", "--regular", "3",
                                 "--connectivity", "3"])
        assert code == 0 and out == window

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_exits_141_silently(self, unbuffered):
        # the console script's entry point in a child whose stdout pipe has
        # no reader left, so its first write fails, whether each print
        # writes or only the final flush does
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(rigikit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = "import sys; from rigikit.cli import main; sys.exit(main())"
        try:
            proc = subprocess.run([sys.executable, "-c", script, "enumerate", "--n", "6"],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == b""


class TestVerifyCommand:
    def test_claim_choices_are_the_claim_mapping(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        lines = capsys.readouterr().out.splitlines()
        claim = lines[lines.index("positional arguments:") + 1]
        choices = claim.strip().strip("{}").split(",")
        assert choices == [*CLAIMS, "all"]

    @pytest.mark.parametrize("claim", ["classify-d3", "all"])
    def test_unwritable_out_exits_before_the_claim(self, capsys, monkeypatch, tmp_path, claim):
        def unreachable(*args, **kwargs):
            raise AssertionError("the claim ran")

        monkeypatch.setitem(CLAIMS, "classify-d3", unreachable)
        monkeypatch.setattr("rigikit.cli.run_all", unreachable)
        out_file = tmp_path / "missing" / "report.json"
        assert main(["verify", claim, "--out", str(out_file)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err
        assert not out_file.parent.exists()

    def test_failed_claim_keeps_the_old_report(self, capsys, monkeypatch, tmp_path):
        def fails(*args, **kwargs):
            raise ValueError("the claim failed")

        monkeypatch.setitem(CLAIMS, "classify-d3", fails)
        out_file = tmp_path / "report.json"
        out_file.write_text("old report")
        assert main(["verify", "classify-d3", "--out", str(out_file)]) == 3
        assert out_file.read_text() == "old report"
        # and a claim that returns replaces the old report
        assert main(["verify", "flexible-families", "--out", str(out_file)]) == 0
        assert json.loads(out_file.read_text())["claim"] == "flexible-families"

    def test_families_report(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out = run(capsys, ["verify", "flexible-families", "--seed", "7",
                                 "--format", "text", "--out", str(out_file)])
        assert code == 0
        assert "flexible-families: pass" in out
        payload = json.loads(out_file.read_text())
        assert payload["claim"] == "flexible-families"
        assert payload["status"] == "pass"
        assert payload["seed"] == 7
