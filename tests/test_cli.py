import csv
import io

import pytest

from common import K3M, K3N, K3P, P3P
from sglap import serialize_signed_graph
from sglap.cli import main


@pytest.fixture
def graph_file(tmp_path):
    def write(name, g):
        path = tmp_path / f"{name}.sg"
        path.write_text(serialize_signed_graph(g), encoding="utf-8")
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundsCommand:
    def test_markdown_table(self, capsys, graph_file):
        code, out, err = run(capsys, ["bounds", "--input", graph_file("k3n", K3N)])
        assert code == 0 and not err
        assert "| lambda_max | exact | 4.000 |" in out
        assert "| LB-NET-1 | lower | 4.000 |" in out
        assert "| KB-5 | lower | 3.000 |" in out

    def test_csv_with_guards(self, capsys, graph_file):
        from common import K3P_K3N

        code, out, _ = run(capsys, ["bounds", "--format", "csv",
                                    "--input", graph_file("u", K3P_K3N)])
        assert code == 0
        rows = {r[0]: r for r in csv.reader(io.StringIO(out))}
        assert rows["LB-NET-1"][2] == "—"
        assert rows["LB-NET-1"][3] == "graph not connected"

    def test_full_precision(self, capsys, graph_file):
        code, out, _ = run(capsys, ["bounds", "--full-precision", "--format", "csv",
                                    "--input", graph_file("k3m", K3M)])
        assert code == 0
        rows = {r[0]: r for r in csv.reader(io.StringIO(out))}
        assert float(rows["LB-NET-1"][2]) == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.sg"
        bad.write_text("n 2\n1 2\n", encoding="utf-8")
        code, out, err = run(capsys, ["bounds", "--input", str(bad)])
        assert code == 2
        assert "missing sign" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["bounds", "--input", "/nonexistent.sg"])
        assert code == 2 and err


class TestSpectrumCommand:
    def test_six_significant_digits(self, capsys, graph_file):
        code, out, _ = run(capsys, ["spectrum", "--input", graph_file("p3p", P3P)])
        assert code == 0
        parts = out.split()
        assert len(parts) == 3
        assert parts[-1] == "3"
        assert abs(float(parts[0])) < 1e-9

    def test_fractional_values_rendered(self, capsys, graph_file):
        code, out, _ = run(capsys, ["spectrum", "--input", graph_file("k3m", K3M)])
        assert code == 0
        assert out.split() == ["1", "1", "4"]


class TestReportCommand:
    def test_rows_per_variant(self, capsys, graph_file):
        path = graph_file("k3n", K3N)
        code, out, _ = run(capsys, ["report", "--inputs", path, "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 4
        assert [r[0] for r in rows[1:]] == ["k3n"] * 3

    def test_multiple_inputs_and_determinism(self, capsys, graph_file):
        paths = [graph_file("a", K3N), graph_file("b", P3P)]
        code1, out1, _ = run(capsys, ["report", "--inputs", *paths])
        code2, out2, _ = run(capsys, ["report", "--inputs", *paths])
        assert code1 == code2 == 0
        assert out1 == out2


class TestVerifyCommand:
    def test_pass_run(self, capsys):
        code, out, _ = run(capsys, ["verify", "--n", "7", "--edge-prob", "0.5",
                                    "--neg-prob", "0.5", "--trials", "20",
                                    "--seed", "11"])
        assert code == 0
        assert "trials: 20" in out
        assert "bound violations: 0" in out
        assert "identity failures: 0" in out
        assert "result: PASS" in out

    def test_deterministic_output(self, capsys):
        argv = ["verify", "--n", "6", "--edge-prob", "0.4", "--neg-prob", "0.5",
                "--trials", "10", "--seed", "3"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_impossible_config_is_an_error(self, capsys):
        code, _, err = run(capsys, ["verify", "--n", "4", "--edge-prob", "0.0",
                                    "--neg-prob", "0.5", "--trials", "5",
                                    "--seed", "1", "--require-connected"])
        assert code == 2
        assert "attempts" in err

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_nonpositive_trials_rejected(self, capsys, trials):
        code, out, err = run(capsys, ["verify", "--n", "5", "--edge-prob", "0.5",
                                      "--neg-prob", "0.5", "--trials", trials,
                                      "--seed", "1"])
        assert code == 2
        assert err.startswith("error:") and "--trials" in err
        assert "PASS" not in out

    def test_require_connected_flag(self, capsys):
        code, out, _ = run(capsys, ["verify", "--n", "5", "--edge-prob", "0.6",
                                    "--neg-prob", "0.5", "--trials", "10",
                                    "--seed", "8", "--require-connected"])
        assert code == 0 and "result: PASS" in out

    def test_nonzero_exit_on_failures(self, capsys, monkeypatch):
        from sglap import VerificationReport, Violation

        fake = VerificationReport(
            trials=1,
            failures=(Violation(0, "n 2\n1 2 -\n", "KB-1", 1.0, 2.0, 1.0),),
            identity_failures=(),
        )
        monkeypatch.setattr("sglap.cli.verify", lambda cfg, trials, tol: fake)
        code, out, _ = run(capsys, ["verify", "--n", "2", "--edge-prob", "1.0",
                                    "--neg-prob", "0.5", "--trials", "1",
                                    "--seed", "1"])
        assert code == 1
        assert "result: FAIL" in out
        assert "check=KB-1" in out


class TestSwitchCheckCommand:
    def test_equivalent_pair_with_witness(self, capsys, graph_file):
        code, out, _ = run(capsys, ["switch-check", "--a", graph_file("m", K3M),
                                    "--b", graph_file("n", K3N)])
        assert code == 0
        assert "switching-equivalent: yes" in out
        assert "theta:" in out
        signs = out.splitlines()[1].split(":")[1].split()
        assert len(signs) == 3 and set(signs) <= {"+", "-"}

    def test_inequivalent_pair(self, capsys, graph_file):
        code, out, _ = run(capsys, ["switch-check", "--a", graph_file("m", K3M),
                                    "--b", graph_file("p", K3P)])
        assert code == 0
        assert "switching-equivalent: no" in out
        assert "theta:" not in out


class TestHostileSizes:
    def test_switch_check_on_huge_headers(self, capsys, tmp_path):
        paths = []
        for name in "ab":
            path = tmp_path / f"{name}.sg"
            path.write_text("n 12345678901234567890\n1 2 +\n", encoding="utf-8")
            paths.append(str(path))
        code, out, err = run(capsys, ["switch-check", "--a", paths[0], "--b", paths[1]])
        assert code == 2 and not out
        assert "exceeds the limit" in err

    def test_memory_error_exits_2(self, capsys, graph_file, monkeypatch):
        def exhausted(g1, g2):
            raise MemoryError

        monkeypatch.setattr("sglap.cli.switching_equivalent", exhausted)
        code, out, err = run(capsys, ["switch-check", "--a", graph_file("m", K3M),
                                      "--b", graph_file("n", K3N)])
        assert code == 2 and not out
        assert err == "error: MemoryError\n"


class TestTolOverride:
    def test_sg_tol_env(self, capsys, graph_file, monkeypatch):
        monkeypatch.setenv("SG_TOL", "1e-6")
        code, out, _ = run(capsys, ["bounds", "--input", graph_file("k3n", K3N)])
        assert code == 0

    def test_bad_sg_tol(self, capsys, graph_file, monkeypatch):
        monkeypatch.setenv("SG_TOL", "not-a-number")
        code, _, err = run(capsys, ["bounds", "--input", graph_file("k3n", K3N)])
        assert code == 2
        assert "SG_TOL" in err

    @pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-inf", "-1", "-1e-12"])
    def test_non_finite_or_negative_sg_tol_rejected(self, capsys, graph_file, monkeypatch, raw):
        monkeypatch.setenv("SG_TOL", raw)
        for argv in (["bounds", "--input", graph_file("k3n", K3N)],
                     ["verify", "--n", "5", "--edge-prob", "0.5", "--neg-prob", "0.5",
                      "--trials", "3", "--seed", "1"]):
            code, out, err = run(capsys, argv)
            assert code == 2
            assert err.startswith("error:") and "SG_TOL" in err
            assert "PASS" not in out

    def test_zero_sg_tol_accepted(self, capsys, graph_file, monkeypatch):
        monkeypatch.setenv("SG_TOL", "0")
        code, out, err = run(capsys, ["switch-check", "--a", graph_file("m", K3M),
                                      "--b", graph_file("n", K3N)])
        assert code == 0 and not err
