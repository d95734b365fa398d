import csv
import inspect
import io
from dataclasses import replace

import numpy as np
import pytest

from common import K3N, P3P, oracle_generate
from sglap import (
    SIGNED_CATALOG,
    GenerationError,
    GeneratorConfig,
    SignedGraph,
    SplitMix64,
    generate,
    harness,
    is_connected,
    laplacian_rank,
    report,
    serialize_signed_graph,
    spectra,
    switch,
    verify,
)
from sglap.sgraph import edge_arrays


class TestSplitMix64:
    def test_reference_values(self):
        # first outputs for seed 1234567, from the published splitmix64 recipe
        rng = SplitMix64(1234567)
        first = [rng.next_u64() for _ in range(3)]
        assert first == [6457827717110365317, 3203168211198807973, 9817491932198370423]

    def test_floats_in_unit_interval(self):
        rng = SplitMix64(99)
        for _ in range(1000):
            x = rng.next_float()
            assert 0.0 <= x < 1.0

    def test_seed_masked_to_64_bits(self):
        a = SplitMix64(1 << 64)
        b = SplitMix64(0)
        assert a.next_u64() == b.next_u64()


class TestGenerate:
    def test_forced_all_negative(self):
        cfg = GeneratorConfig(n=3, edge_prob=1.0, neg_prob=1.0, seed=5)
        assert generate(cfg) == K3N

    def test_forced_all_positive(self):
        cfg = GeneratorConfig(n=3, edge_prob=1.0, neg_prob=0.0, seed=5)
        got = generate(cfg)
        assert got.m == 3 and all(s == 1 for _, _, s in got.edges)

    def test_deterministic(self):
        cfg = GeneratorConfig(n=10, edge_prob=0.4, neg_prob=0.3, seed=777)
        assert generate(cfg) == generate(cfg)

    def test_seed_changes_graph(self):
        a = generate(GeneratorConfig(n=10, edge_prob=0.5, neg_prob=0.5, seed=1))
        b = generate(GeneratorConfig(n=10, edge_prob=0.5, neg_prob=0.5, seed=2))
        assert a != b

    def test_require_connected(self):
        for seed in range(20):
            cfg = GeneratorConfig(n=8, edge_prob=0.3, neg_prob=0.5, seed=seed,
                                  require_connected=True)
            assert is_connected(generate(cfg))

    def test_connectivity_cap_error(self):
        cfg = GeneratorConfig(n=3, edge_prob=0.0, neg_prob=0.5, seed=1,
                              require_connected=True)
        with pytest.raises(GenerationError, match="attempts") as err:
            generate(cfg)
        assert err.value.attempts == 10_000

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n=0, edge_prob=0.5, neg_prob=0.5, seed=1)
        with pytest.raises(ValueError):
            GeneratorConfig(n=3, edge_prob=1.5, neg_prob=0.5, seed=1)
        with pytest.raises(ValueError):
            GeneratorConfig(n=3, edge_prob=0.5, neg_prob=-0.1, seed=1)
        # generate scans every vertex pair, so n has its own cap.
        GeneratorConfig(n=10_000, edge_prob=0.5, neg_prob=0.5, seed=1)
        with pytest.raises(ValueError, match="exceeds the limit 10000"):
            GeneratorConfig(n=10_001, edge_prob=0.5, neg_prob=0.5, seed=1)
        # True == 1, so only the type tells a bool from a vertex count.
        with pytest.raises(ValueError, match="n must be a positive integer, got True"):
            GeneratorConfig(n=True, edge_prob=0.5, neg_prob=0.5, seed=1)


class TestVerify:
    def test_clean_run(self):
        cfg = GeneratorConfig(n=8, edge_prob=0.5, neg_prob=0.5, seed=4242)
        rep = verify(cfg, trials=50)
        assert rep.trials == 50
        assert rep.ok
        assert rep.failures == ()
        assert rep.identity_failures == ()

    def test_zero_trials(self):
        cfg = GeneratorConfig(n=5, edge_prob=0.5, neg_prob=0.5, seed=1)
        for trials in (0, -5):
            with pytest.raises(ValueError, match="at least 1"):
                verify(cfg, trials=trials)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_tol_raises(self, tol):
        # NaN and +inf would pass every check, so the report would be a
        # vacuous PASS.
        cfg = GeneratorConfig(n=8, edge_prob=0.5, neg_prob=0.5, seed=1)
        with pytest.raises(ValueError, match="tol must be finite"):
            verify(cfg, 3, tol=tol)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("n, edge_prob", [(1, 0.0), (6, 0.0), (6, 1.0)])
    def test_non_finite_tol_raises_whatever_the_graphs(self, tol, n, edge_prob):
        # Also where no sandwich comparison runs (one vertex, no edges) and
        # where every one would pass: the tolerance itself is refused.
        cfg = GeneratorConfig(n=n, edge_prob=edge_prob, neg_prob=0.5, seed=3)
        with pytest.raises(ValueError, match=r"^tol must be finite, got "):
            verify(cfg, 2, tol=tol)

    def test_impossible_connected_config_raises(self):
        cfg = GeneratorConfig(n=4, edge_prob=0.0, neg_prob=0.5, seed=1,
                              require_connected=True)
        with pytest.raises(GenerationError):
            verify(cfg, trials=1)

    def test_deterministic(self):
        cfg = GeneratorConfig(n=7, edge_prob=0.4, neg_prob=0.6, seed=99)
        assert verify(cfg, trials=10) == verify(cfg, trials=10)

    def test_failures_carry_the_trial_graph(self):
        # With tol = -1 the switching check (diff > tol) fires on every trial.
        cfg = GeneratorConfig(n=6, edge_prob=0.5, neg_prob=0.5, seed=31)
        rep = verify(cfg, 3, tol=-1.0)
        seeds = SplitMix64(cfg.seed)
        graphs = []
        for _ in range(3):
            graphs.append(serialize_signed_graph(generate(replace(cfg, seed=seeds.next_u64()))))
            seeds.next_u64()  # the trial's switching seed
        switching = [v for v in rep.identity_failures if v.check_id == "switching"]
        assert [v.trial for v in switching] == [0, 1, 2]
        assert rep.failures
        for v in rep.failures + rep.identity_failures:
            assert v.graph == graphs[v.trial]
            assert serialize_signed_graph(generate(replace(cfg, seed=v.seed))) == v.graph

    def test_failure_numbers_are_python_floats(self):
        # FAIL lines print them with repr, where a numpy scalar would read
        # np.float64(...).
        cfg = GeneratorConfig(n=6, edge_prob=0.5, neg_prob=0.5, seed=31)
        rep = verify(cfg, 3, tol=-1.0)
        assert rep.failures and rep.identity_failures
        for v in rep.failures + rep.identity_failures:
            assert (type(v.value), type(v.reference), type(v.magnitude)) == (float,) * 3

    def test_trace_off_by_one_above_2_53(self, monkeypatch):
        # 2^53 + 1 is no float: its magnitude is the integers' difference,
        # taken before either becomes a float.
        real_facts, real_traces = harness._batch_facts, harness._exact_traces

        def planted_facts(u):
            f = real_facts(u)
            f.p3[0] = 2 ** 53
            return f

        def planted_traces(lap):
            traces = real_traces(lap)
            traces[0, 2] = 2 ** 53 + 1
            return traces

        monkeypatch.setattr(harness, "_batch_facts", planted_facts)
        monkeypatch.setattr(harness, "_exact_traces", planted_traces)
        rep = verify(GeneratorConfig(n=6, edge_prob=0.5, neg_prob=0.5, seed=31), 3)
        assert [(v.trial, v.check_id, v.value, v.reference, v.magnitude)
                for v in rep.identity_failures] == [(0, "trace-3", 2.0 ** 53, 2.0 ** 53, 1.0)]

    def test_one_switched_stack_per_chunk(self, monkeypatch):
        # Three chunks of three trials at n = 7 (5 * 49 entries a trial).
        # Each builds one float64 stack, its trials' switched Laplacians, from
        # one weight row: the signs of switch(g, theta) of each trial.
        cfg = GeneratorConfig(n=7, edge_prob=0.5, neg_prob=0.5, seed=99)
        calls, real = [], harness._laplacians

        def spy(u, graphs, weights):
            stack = real(u, graphs, weights)
            calls.append((weights, stack.dtype))
            return stack

        monkeypatch.setattr(harness, "_BATCH_ELEMENTS", 3 * 5 * 7 * 7)
        monkeypatch.setattr(harness, "_laplacians", spy)
        verify(cfg, 9)
        seeds, signs = SplitMix64(cfg.seed), []
        for _ in range(9):
            g = oracle_generate(replace(cfg, seed=seeds.next_u64()))
            rng = SplitMix64(seeds.next_u64())
            th = tuple(-1 if rng.next_float() < 0.5 else 1 for _ in range(g.n))
            signs.append(edge_arrays(switch(g, th))[2])
        assert len(calls) == 3
        for chunk, (weights, dtype) in enumerate(calls):
            assert weights.shape[0] == 1 and dtype == np.float64
            assert weights[0].tolist() == np.concatenate(signs[3 * chunk:3 * chunk + 3]).tolist()
        assert len(inspect.signature(spectra._laplacians).parameters) == 3

    def test_planted_rank_failure(self, monkeypatch):
        # No eigenvalue lies above the planted threshold, so the numerical
        # rank of every trial is 0, off by its exact rank.
        monkeypatch.setattr(harness, "RANK_TOL", 1e9)
        cfg = GeneratorConfig(n=6, edge_prob=0.5, neg_prob=0.5, seed=31)
        rep = verify(cfg, 3)
        seeds = SplitMix64(cfg.seed)
        want = []
        for trial in range(3):
            g = generate(replace(cfg, seed=seeds.next_u64()))
            seeds.next_u64()
            rank = float(laplacian_rank(g))
            want += [(trial, "rank", 0.0, rank, rank)] if rank else []
        assert want
        assert [(v.trial, v.check_id, v.value, v.reference, v.magnitude)
                for v in rep.identity_failures] == want
        assert rep.failures == ()


class TestReport:
    def test_header_only_when_no_graphs(self):
        md = report([], fmt="md")
        lines = md.strip().splitlines()
        assert len(lines) == 2  # header + separator
        assert lines[0].startswith("| graph | variant | lambda_max |")
        csv_text = report([], fmt="csv")
        assert csv_text.splitlines() == ["graph,variant,lambda_max," +
                                         ",".join(SIGNED_CATALOG)]

    def test_k3n_markdown_row(self):
        md = report([K3N], fmt="md", names=["K3N"])
        rows = [l for l in md.splitlines() if l.startswith("| K3N")]
        assert len(rows) == 3
        signed_row = rows[0]
        assert "| Σ |" in signed_row
        assert "| 4.000 |" in signed_row  # lambda_max and the tight bounds
        # LB-NET-1 is the first bound column
        cells = [c.strip() for c in signed_row.split("|")[1:-1]]
        assert cells[0] == "K3N"
        header = [c.strip() for c in md.splitlines()[0].split("|")[1:-1]]
        by_name = dict(zip(header, cells))
        assert by_name["lambda_max"] == "4.000"
        assert by_name["LB-NET-1"] == "4.000"
        assert by_name["UB-RANK"] == "4.000"
        assert by_name["KB-5"] == "3.000"

    def test_p3p_csv_rows(self):
        text = report([P3P], fmt="csv", names=["P3P"])
        rows = list(csv.reader(io.StringIO(text)))
        header, data = rows[0], rows[1:]
        assert len(data) == 3
        assert [r[1] for r in data] == ["Σ", "(Γ,+1)", "(Γ,-1)"]
        positive_row = dict(zip(header, data[1]))
        assert positive_row["graph"] == "P3P"
        assert positive_row["lambda_max"] == "3.000"
        assert positive_row["LB-NET-1"] == "0.000"
        # all-negative variant picks up the signless values
        negative_row = dict(zip(header, data[2]))
        assert negative_row["LB-NET-1"] == "2.667"

    def test_inapplicable_cells_render_dash(self):
        text = report([SignedGraph.from_edges(2, [(1, 2, 1)])], fmt="csv", names=["K2"])
        rows = list(csv.reader(io.StringIO(text)))
        by_name = dict(zip(rows[0], rows[1]))
        assert by_name["UB-WANG-GLOBAL"] == "—"
        assert by_name["LB-TR-1"] == "—"

    def test_csv_round_trips_with_declared_width(self):
        graphs = [K3N, P3P]
        text = report(graphs, fmt="csv", names=["a", "b"])
        rows = list(csv.reader(io.StringIO(text)))
        width = 3 + len(SIGNED_CATALOG)
        assert all(len(r) == width for r in rows)
        assert len(rows) == 1 + 3 * len(graphs)

    def test_full_precision(self):
        text = report([P3P], fmt="csv", names=["P3P"], full_precision=True)
        rows = list(csv.reader(io.StringIO(text)))
        by_name = dict(zip(rows[0], rows[1]))
        assert float(by_name["lambda_max"]) == pytest.approx(3.0, abs=1e-9)
        assert "." in by_name["lambda_max"]

    def test_deterministic_output(self):
        graphs = [K3N, P3P]
        assert report(graphs, fmt="md") == report(graphs, fmt="md")

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            report([K3N], fmt="html")

    def test_rejects_name_mismatch(self):
        with pytest.raises(ValueError):
            report([K3N], names=["a", "b"])
