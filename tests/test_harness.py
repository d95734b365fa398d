import csv
import io
from dataclasses import replace

import pytest

from common import K3N, P3P
from sglap import (
    SIGNED_CATALOG,
    GenerationError,
    GeneratorConfig,
    SignedGraph,
    SplitMix64,
    generate,
    is_connected,
    report,
    serialize_signed_graph,
    verify,
)


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


class TestReport:
    def test_header_only_when_no_graphs(self):
        md = report([], fmt="md")
        lines = md.strip().splitlines()
        assert len(lines) == 2  # header + separator
        assert lines[0].startswith("| graph | variant | lambda_max |")
        csv_text = report([], fmt="csv")
        assert csv_text.splitlines() == ["graph,variant,lambda_max," +
                                         ",".join(e.bound_id for e in SIGNED_CATALOG)]

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
