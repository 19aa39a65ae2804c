import io
import json

import pytest

from rigikit import Graph, complete_graph, canonical_code
from rigikit.cli import main
from rigikit.constructions import build_glued_cliques


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
        code, out = run(capsys, ["family", "complete", "--n", "5"])
        assert code == 0
        assert Graph.from_graph6(out.strip()) == complete_graph(5)


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
    ])
    def test_rejected_command_line_exits_3(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        assert "error:" in capsys.readouterr().err


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

    def test_contract_requires_edge_flag(self, capsys, monkeypatch):
        g6 = complete_graph(4).to_graph6()
        code, _ = run(capsys, ["op", "contract"], stdin=g6 + "\n", monkeypatch=monkeypatch)
        assert code == 3

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


class TestVerifyCommand:
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
