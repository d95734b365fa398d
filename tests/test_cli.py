import csv
import io
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sglap
from common import EMPTY3, K1, K3M, K3N, K3P, K3P_K3N, P3P, random_graphs
from sglap import (GeneratorConfig, GraphFormatError, SignedGraph, balance_info, generate,
                   parse_signed_graph, serialize_signed_graph, switch, switching_equivalent)
from sglap.cli import main
from sglap.sgraph import edge_arrays
from test_sgraph import signed_graphs


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

    def test_pipe_in_a_name_is_escaped_in_markdown_only(self, capsys, graph_file):
        path = graph_file("a|b", P3P)
        code, out, _ = run(capsys, ["report", "--inputs", path])
        assert code == 0
        header, _, *rows = out.splitlines()
        assert len(rows) == 3
        for row in rows:
            assert row.startswith("| a\\|b | ")
            assert row.replace("\\|", "").count("|") == header.count("|")
        code, out, _ = run(capsys, ["report", "--inputs", path, "--format", "csv"])
        assert code == 0
        assert [r[0] for r in csv.reader(io.StringIO(out))][1:] == ["a|b"] * 3


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
            failures=(Violation(0, 77, "n 2\n1 2 -\n", "KB-1", 1.0, 2.0, 1.0),),
            identity_failures=(),
        )
        monkeypatch.setattr("sglap.cli.verify", lambda cfg, trials, tol: fake)
        code, out, _ = run(capsys, ["verify", "--n", "2", "--edge-prob", "1.0",
                                    "--neg-prob", "0.5", "--trials", "1",
                                    "--seed", "1"])
        assert code == 1
        assert "result: FAIL" in out
        assert "FAIL trial=0 seed=77 check=KB-1 " in out

    def test_bound_assertion_names_its_seed(self, capsys, monkeypatch):
        from dataclasses import replace

        import numpy as np

        from sglap import SplitMix64, bounds

        # The catalog's UB-RANK row, planted to hand the shared assert a
        # radicand of -1 on every graph with an edge.
        planted = tuple(replace(row, formula=lambda f: bounds._nonnegative(np.full(len(f), -1)))
                        if row.bound_id == "UB-RANK" else row for row in bounds._CATALOG)
        monkeypatch.setattr(bounds, "_CATALOG", planted)
        code, out, err = run(capsys, ["verify", "--n", "5", "--edge-prob", "0.5",
                                      "--neg-prob", "0.5", "--trials", "3",
                                      "--seed", "9"])
        g_seed = SplitMix64(9).next_u64()  # the first trial's graph seed
        assert code == 2 and not out
        assert err == f"error: trial=0 seed={g_seed}: UB-RANK: radicand -1 < 0\n"


class TestOneEvaluationPerGraph:
    """Each command evaluates each graph once: ``bounds`` and a ``report``
    over several files make one ``_batch_facts`` call, ``verify`` one per
    chunk of trials, and ``spectrum`` and ``switch-check`` none."""

    @pytest.fixture
    def batches(self, monkeypatch):
        from sglap import bounds, harness

        sizes = []
        real = bounds._batch_facts

        def counted(u, *args):
            sizes.append(len(u.n))
            return real(u, *args)

        monkeypatch.setattr(bounds, "_batch_facts", counted)
        monkeypatch.setattr(harness, "_batch_facts", counted)
        return sizes

    @pytest.mark.parametrize("flags", [[], ["--format", "csv", "--full-precision"]])
    def test_bounds(self, capsys, graph_file, batches, flags):
        assert run(capsys, ["bounds", *flags, "--input", graph_file("k3m", K3M)])[0] == 0
        assert batches == [1]

    def test_report_over_three_files(self, capsys, graph_file, batches):
        paths = [graph_file(name, g) for name, g in (("a", K3M), ("b", K3N), ("c", P3P))]
        assert run(capsys, ["report", "--inputs", *paths])[0] == 0
        assert batches == [9]  # each graph and its two one-sign signings

    @pytest.mark.parametrize("connected", [[], ["--require-connected"]])
    def test_verify_once_per_chunk(self, capsys, batches, monkeypatch, connected):
        monkeypatch.setattr("sglap.harness._BATCH_ELEMENTS", 5 * 6 * 6 * 4)  # 4 trials a chunk
        code, out, _ = run(capsys, ["verify", "--n", "6", "--edge-prob", "0.6", "--neg-prob",
                                    "0.5", "--trials", "10", "--seed", "5", *connected])
        assert code == 0 and "trials: 10" in out
        assert batches == [4, 4, 2]

    def test_spectrum_and_switch_check_evaluate_nothing(self, capsys, graph_file, batches):
        a, b = graph_file("a", K3M), graph_file("b", K3N)
        assert run(capsys, ["spectrum", "--input", a])[0] == 0
        assert run(capsys, ["switch-check", "--a", a, "--b", b])[0] == 0
        assert batches == []


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

    def test_theta_line_matches_a_join_over_the_witness(self, capsys, graph_file):
        """The witness, rendered from its array in one pass, reads like a
        join of one sign character per vertex, on one vertex and on graphs
        of several components alike."""
        rng = random.Random(2028)
        graphs = [K1, EMPTY3, K3P_K3N] + random_graphs(
            60, base_seed=2_800, n_min=1, n_max=40, prob_lo=0.02, prob_hi=0.3)
        assert max(balance_info(g).component_count for g in graphs) > 3
        for g in graphs:
            partner = switch(g, tuple(rng.choice((1, -1)) for _ in range(g.n)))
            verdict = switching_equivalent(g, partner)
            code, out, err = run(capsys, ["switch-check", "--a", graph_file("a", g),
                                          "--b", graph_file("b", partner)])
            assert (code, err) == (0, "")
            assert out == ("switching-equivalent: yes\ntheta: "
                           + " ".join(map({1: "+", -1: "-"}.__getitem__, verdict.witness))
                           + "\n")


def verdict_output(verdict) -> str:
    """switch-check's stdout for a ``switching_equivalent`` verdict."""
    if not verdict.equivalent:
        return "switching-equivalent: no\n"
    return ("switching-equivalent: yes\ntheta: "
            + " ".join("+" if v > 0 else "-" for v in verdict.witness) + "\n")


def flipped(g: SignedGraph, k: int) -> SignedGraph:
    """``g`` with the sign of its k-th edge, in sorted order, flipped."""
    i, j, sign = (row.tolist() for row in edge_arrays(g))
    sign[k] = -sign[k]
    return SignedGraph(g.n, frozenset(zip(i, j, sign)))


class TestSwitchCheckReadsSignBytes:
    """A second file whose bytes equal the first's but for a ``+`` or ``-``
    at each of its sign bytes is read by those bytes alone, into the graph
    and the output the general path gives; any other second file is loaded
    as the first is."""

    @given(signed_graphs(max_n=9), st.data())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_output_as_the_general_path(self, capsys, tmp_path, g, data):
        theta = tuple(data.draw(st.lists(st.sampled_from((1, -1)), min_size=g.n,
                                         max_size=g.n)))
        partner = switch(g, theta)
        if g.m and data.draw(st.booleans()):
            # One flipped edge: on a cycle it makes the pair inequivalent.
            partner = flipped(partner, data.draw(st.integers(0, g.m - 1)))
        # a's lines in any order, b's in the same order: the same layout.
        order = data.draw(st.permutations(range(g.m)))
        header, *lines = serialize_signed_graph(g).splitlines(keepends=True)
        a = tmp_path / "a.sg"
        a.write_text(header + "".join(lines[k] for k in order), encoding="utf-8")
        header, *lines = serialize_signed_graph(partner).splitlines(keepends=True)
        texts = {"same layout": header + "".join(lines[k] for k in order),
                 "shuffled": header + "".join(data.draw(st.permutations(lines))),
                 "indices swapped": header + "".join(f"{j} {i} {sign}\n" for i, j, sign
                                                     in map(str.split, lines))}
        outputs = {}
        for name, text in texts.items():
            b = tmp_path / "b.sg"
            b.write_text(text, encoding="utf-8")
            code, out, err = run(capsys, ["switch-check", "--a", str(a), "--b", str(b)])
            assert (code, err) == (0, ""), name
            outputs[name] = out
        assert set(outputs.values()) == {verdict_output(switching_equivalent(g, partner))}

    @pytest.mark.parametrize("graph", ["readme", "n200"])
    def test_same_layout_decodes_numbers_once(self, capsys, tmp_path, monkeypatch, graph):
        """Only the first file's numbers are decoded; the second graph keeps
        the first one's pairs and takes its signs from the second file,
        also when the first file's lines do not ascend (the README's
        k3m.sg)."""
        if graph == "readme":
            text_a, text_b = ("n 3\n1 2 +\n2 3 +\n1 3 -\n", "n 3\n1 2 -\n2 3 -\n1 3 -\n")
        else:
            g = generate(GeneratorConfig(n=200, edge_prob=0.05, neg_prob=0.5, seed=29))
            rng = random.Random(29)
            text_a = serialize_signed_graph(g)
            text_b = serialize_signed_graph(switch(g, tuple(rng.choice((1, -1))
                                                            for _ in range(g.n))))
        a, b = tmp_path / "a.sg", tmp_path / "b.sg"
        a.write_bytes(text_a.encode())
        b.write_bytes(text_b.encode())
        decoded, pairs = [], []
        serialized_rows, witness = sglap.sgraph._serialized_rows, sglap.cli._switching_witness
        monkeypatch.setattr("sglap.sgraph._serialized_rows",
                            lambda padded: decoded.append(len(padded) - 8)
                            or serialized_rows(padded))
        monkeypatch.setattr("sglap.sgraph._parse_lines", None)  # no line reader
        monkeypatch.setattr("sglap.cli._parse_lines", None)
        monkeypatch.setattr("sglap.cli._switching_witness",
                            lambda g1, g2: pairs.append((g1, g2)) or witness(g1, g2))
        code, out, err = run(capsys, ["switch-check", "--a", str(a), "--b", str(b)])
        assert (code, err) == (0, "")
        assert decoded == [len(text_a)]
        [(g1, g2)] = pairs
        assert g1 == parse_signed_graph(text_a) and g2 == parse_signed_graph(text_b)
        assert all(x is y for x, y in zip(edge_arrays(g1)[:2], edge_arrays(g2)[:2]))
        assert out == verdict_output(switching_equivalent(g1, g2))

    @pytest.mark.parametrize("change", ["header count", "one digit", "crlf",
                                        "no final newline", "star sign", "extra line"])
    def test_other_bytes_load_as_before(self, capsys, tmp_path, monkeypatch, change):
        """A second file that differs from the first in one byte or line
        that is not a sign is loaded on its own: its own output, or its own
        error, as loading it separately gives."""
        g = SignedGraph.from_edges(5, [(1, 2, 1), (2, 3, -1), (3, 4, 1), (4, 5, -1),
                                       (1, 3, 1), (2, 5, 1)])
        text = serialize_signed_graph(switch(g, (1, -1, -1, 1, -1)))
        text_b = {"header count": text.replace("n 5", "n 6", 1),
                  "one digit": text.replace("4 5", "3 5", 1),
                  "crlf": text.replace("\n", "\r\n"),
                  "no final newline": text[:-1],
                  "star sign": text.replace("+\n", "*\n", 1),
                  "extra line": text + "1 4 -\n"}[change]
        assert len(text_b) != len(text) or change in ("header count", "one digit", "star sign")
        a, b = tmp_path / "a.sg", tmp_path / "b.sg"
        a.write_text(serialize_signed_graph(g), encoding="utf-8")
        b.write_bytes(text_b.encode())
        try:
            want = (0, verdict_output(switching_equivalent(sglap.cli._load(str(a)),
                                                           sglap.cli._load(str(b)))), "")
        except GraphFormatError as exc:
            want = (2, "", f"error: {exc}\n")
        parsed = []
        parse = sglap.cli._parse
        monkeypatch.setattr("sglap.cli._parse",
                            lambda padded: parsed.append(len(padded) - 8) or parse(padded))
        assert run(capsys, ["switch-check", "--a", str(a), "--b", str(b)]) == want
        assert parsed == [len(text_b)]  # b loaded on its own, as every file is


class TestByteOrderMark:
    """A file that starts with a UTF-8 byte-order mark reads like the same
    file without it, with or without a header line."""

    @pytest.mark.parametrize("text", ["n 3\n1 2 +\n2 3 -\n", "1 2 +\n2 3 -\n"])
    @pytest.mark.parametrize("command", ["bounds", "spectrum", "switch-check"])
    def test_same_output_as_plain_input(self, capsys, tmp_path, command, text):
        outputs = []
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            path = tmp_path / f"{name}.sg"
            path.write_bytes(prefix + text.encode("utf-8"))
            inputs = (["--a", str(path), "--b", str(path)] if command == "switch-check"
                      else ["--input", str(path)])
            outputs.append(run(capsys, [command, *inputs]))
        assert outputs[0][0] == 0 and not outputs[0][2]
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize("text", ["n 3\n1 2 +\n2 3 -\n", "1 2 +\n2 3 -\n",
                                      "n 4\n2 1 -\n3 4 +\n", "n 3\n1 2 +\n1 2 -\n"])
    @pytest.mark.parametrize("command", ["bounds", "switch-check"])
    def test_crlf_reads_like_lf(self, capsys, tmp_path, command, text):
        """A file with CRLF (or CR) line ends, with or without a byte-order
        mark, gives the bytes, errors included, of the same file with LF:
        read as bytes, it goes to the line reader."""
        outputs = []
        for name, raw in (("lf", text), ("crlf", text.replace("\n", "\r\n")),
                          ("cr", text.replace("\n", "\r")),
                          ("bom-crlf", "\ufeff" + text.replace("\n", "\r\n"))):
            path = tmp_path / f"{name}.sg"
            path.write_bytes(raw.encode("utf-8"))
            inputs = (["--a", str(path), "--b", str(path)] if command == "switch-check"
                      else ["--input", str(path)])
            outputs.append(run(capsys, [command, *inputs]))
        assert outputs[1:] == outputs[:1] * 3


class TestOneFormCheckPerFile:
    """A file the serializer-form check refuses goes straight to the line
    reader, with no second check of its decoded text; a byte-order mark
    before serializer-form text is read by the line reader into an equal
    graph; a switch-check partner that differs from the first file in sign
    bytes alone gets no form check."""

    @pytest.mark.parametrize("variant", ["crlf", "comment", "bom"])
    def test_refused_file_is_checked_once(self, capsys, tmp_path, monkeypatch, variant):
        text = serialize_signed_graph(K3M)
        raw = {"crlf": text.replace("\n", "\r\n"), "comment": "# K3M\n" + text,
               "bom": "\ufeff" + text}[variant]
        lf, other, partner = tmp_path / "lf.sg", tmp_path / "other.sg", tmp_path / "partner.sg"
        lf.write_text(text, encoding="utf-8")
        other.write_bytes(raw.encode("utf-8"))
        partner.write_text(serialize_signed_graph(switch(K3M, (-1, 1, 1))), encoding="utf-8")
        assert sglap.cli._load(str(other)) == sglap.cli._load(str(lf))
        calls = []
        check = sglap.cli._parse_padded

        def spy(padded, **kwargs):
            calls.append(len(padded))
            return check(padded, **kwargs)

        monkeypatch.setattr("sglap.cli._parse_padded", spy)
        monkeypatch.setattr("sglap.sgraph._parse_padded", spy)
        outputs = {}
        for path in (lf, other):
            # The partner differs from lf.sg in sign bytes alone, so after
            # lf.sg it is read by its signs, with no form check of its own.
            for argv, loads in ((["bounds", "--input", str(path)], 1),
                                (["switch-check", "--a", str(path), "--b", str(partner)],
                                 1 if path is lf else 2)):
                calls.clear()
                outputs[path, argv[0]] = run(capsys, argv)
                assert len(calls) == loads, (path.name, argv[0])
        for command in ("bounds", "switch-check"):
            assert outputs[lf, command][0] == 0 and not outputs[lf, command][2]
            assert outputs[other, command] == outputs[lf, command]


class TestLoadBytes:
    """``_load`` reads a file's bytes once; a file whose size says nothing
    of its contents, such as a pipe, is read to its end all the same."""

    def test_named_pipe(self, tmp_path):
        fifo = tmp_path / "g.sg"
        os.mkfifo(fifo)
        text = "n 3000\n" + "".join(f"{k} {k + 1} -\n" for k in range(1, 3000))
        writer = threading.Thread(target=fifo.write_text, args=(text,))
        writer.start()
        try:
            g = sglap.cli._load(str(fifo))
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert "edges" not in g.__dict__  # read by numpy
        assert g == sglap.parse_signed_graph(text) and g.m == 2999


class TestParserReuse:
    """main builds its argument parser once per process; a call that fails
    in argument parsing leaves nothing behind for the next call."""

    @pytest.mark.parametrize("bad", [["bounds", "--format", "xml", "--input", "k3m.sg"],
                                     ["verify", "--n", "x"], ["switch-check", "--a"],
                                     ["spectrum"], ["nope"], []])
    def test_valid_call_after_usage_error_matches_a_fresh_process(self, capsys, graph_file,
                                                                   bad):
        argv = ["bounds", "--format", "csv", "--input", graph_file("k3m", K3M)]
        with pytest.raises(SystemExit) as usage:
            main(bad)
        assert usage.value.code == 2
        capsys.readouterr()
        env = {**os.environ, "PYTHONPATH": str(Path(sglap.__file__).parents[1])}
        fresh = subprocess.run([sys.executable, "-m", "sglap.cli", *argv], env=env,
                               capture_output=True, text=True, check=False)
        assert run(capsys, argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert fresh.returncode == 0 and fresh.stdout


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

    def test_verify_on_huge_n(self, capsys, monkeypatch):
        # Scanning n^2/2 vertex pairs would never finish, so the size must be
        # refused before any graph is generated.
        def unreachable(cfg):
            raise AssertionError("generate called with an oversized n")

        monkeypatch.setattr("sglap.harness.generate", unreachable)
        code, out, err = run(capsys, ["verify", "--n", "12345678901234567890",
                                      "--edge-prob", "0.5", "--neg-prob", "0.5",
                                      "--trials", "1", "--seed", "1"])
        assert code == 2 and not out
        assert "exceeds the limit" in err

    def test_verify_above_generator_cap(self, capsys, monkeypatch):
        # The parser accepts far larger orders, but generate's O(n^2) pair
        # scan has its own, lower cap.
        def unreachable(cfg):
            raise AssertionError("generate called with an oversized n")

        monkeypatch.setattr("sglap.harness.generate", unreachable)
        code, out, err = run(capsys, ["verify", "--n", "10001", "--edge-prob", "0",
                                      "--neg-prob", "0.5", "--trials", "1", "--seed", "1"])
        assert code == 2 and not out
        assert err == "error: n 10001 exceeds the limit 10000\n"

    def test_memory_error_exits_2(self, capsys, graph_file, monkeypatch):
        def exhausted(g1, g2):
            raise MemoryError

        monkeypatch.setattr("sglap.cli._switching_witness", exhausted)
        code, out, err = run(capsys, ["switch-check", "--a", graph_file("m", K3M),
                                      "--b", graph_file("n", K3N)])
        assert code == 2 and not out
        assert err == "error: MemoryError\n"


class TestLoadAll:
    """Every command loads its inputs one after another, in argument order,
    on the calling thread; the first bad input in argument order is
    reported, with its message and exit code 2."""

    @pytest.fixture
    def load_threads(self, monkeypatch):
        """The threads that call ``_load``, each once."""
        threads = set()
        load = sglap.cli._load

        def recorded(path):
            threads.add(threading.current_thread())
            return load(path)

        monkeypatch.setattr("sglap.cli._load", recorded)
        return threads

    @pytest.fixture
    def bad_files(self, tmp_path):
        a, b = tmp_path / "a.sg", tmp_path / "b.sg"
        a.write_text("n 2\n1 2\n", encoding="utf-8")
        b.write_text("n 3\n1 2 +\n3 3 -\n", encoding="utf-8")
        return str(a), str(b)

    @pytest.mark.parametrize("b_missing", [False, True])
    def test_both_inputs_bad_reports_a(self, capsys, bad_files, tmp_path, b_missing):
        b = str(tmp_path / "missing.sg") if b_missing else bad_files[1]
        code, out, err = run(capsys, ["switch-check", "--a", bad_files[0], "--b", b])
        assert (code, out, err) == (2, "", "error: line 2: missing sign token\n")

    def test_only_b_bad_reports_b(self, capsys, graph_file, bad_files):
        code, out, err = run(capsys, ["switch-check", "--a", graph_file("m", K3M),
                                      "--b", bad_files[1]])
        assert (code, out, err) == (2, "", "error: line 3: self-loop at vertex 3\n")

    def test_missing_file(self, capsys, graph_file, tmp_path):
        missing = str(tmp_path / "missing.sg")
        code, out, err = run(capsys, ["switch-check", "--a", graph_file("m", K3M),
                                      "--b", missing])
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 2] No such file or directory: {missing!r}\n"

    def test_one_input_starts_no_thread(self, capsys, tmp_path, graph_file, monkeypatch):
        """No command starts a thread, however many CPUs the process may
        run on and however large its inputs: not for one input, not for two
        serializer-form files of over 128 KiB each, and not for a report
        over five files."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)

        def unstartable(self):
            raise AssertionError("a command started a thread")

        n = 20_000  # a path of n vertices, about 240 KB in the serializer's form
        text = f"n {n}\n" + "".join(f"{k} {k + 1} +\n" for k in range(1, n))
        pair = [tmp_path / "a.sg", tmp_path / "b.sg"]
        for path in pair:
            path.write_text(text, encoding="utf-8")
            assert path.stat().st_size > 128 * 1024
        # Five small graphs behind a long comment each: 300 KB in all.
        reports = []
        for k, g in enumerate((K3M, K3N, K3P, P3P, K3M)):
            path = tmp_path / f"r{k}.sg"
            path.write_text("#" * 60_000 + "\n" + serialize_signed_graph(g), encoding="utf-8")
            reports.append(str(path))
        monkeypatch.setattr(threading.Thread, "start", unstartable)
        for argv in (["spectrum", "--input", graph_file("p3p", P3P)],
                     ["switch-check", "--a", str(pair[0]), "--b", str(pair[1])],
                     ["report", "--format", "csv", "--inputs", *reports]):
            code, out, err = run(capsys, argv)
            assert code == 0 and out and not err, argv

    def test_small_inputs_load_on_the_calling_thread(self, capsys, graph_file, monkeypatch,
                                                     load_threads):
        # As in a report over a few small graphs: a second thread would only
        # wait for the GIL.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        paths = [graph_file(f"g{k}", g) for k, g in enumerate((K3M, K3N, K3P, P3P))]
        code, out, _ = run(capsys, ["report", "--inputs", *paths])
        assert code == 0 and out
        assert load_threads == {threading.main_thread()}


def test_import_loads_no_executor_module():
    # Importing concurrent.futures costs several ms of every process start,
    # and the CLI loads its inputs on the calling thread.
    env = {**os.environ, "PYTHONPATH": str(Path(sglap.__file__).parents[1])}
    probe = ("import sys, sglap.cli; "
             "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
             "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[]\n"


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
