"""The catalog's rows are array formulas over a whole batch, and ``verify``
checks its trials as masks.

Every row's value and guard reason must equal the scalar formula it
replaced (``oracle_evaluation`` in ``tests/common.py``), bit for bit, on
mixed batches, on the Python-int path and on sums past 2^53.  An assert
names the lowest trial and, on it, the first row in catalog order, as the
trial-by-trial loop did; a row that is guarded off asserts nothing.  A
passing ``verify`` builds no ``BoundResult``.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from common import K3M, K3P_K3N, oracle_evaluation, oracle_generate, oracle_verify
from sglap import (
    GeneratorConfig,
    InternalInconsistencyError,
    SplitMix64,
    generate,
    serialize_signed_graph,
    verify,
)
from sglap import bounds, harness, sgraph
from sglap.sgraph import _Union

ORDERS = (1, 2, 3, 5, 10, 30)
SIGNINGS = (0.0, 0.5, 1.0)


def mixed_graphs():
    """Graphs of every order and signing, edgeless to complete, with
    disconnected and balanced ones among them."""
    return [generate(GeneratorConfig(n=n, edge_prob=p, neg_prob=q, seed=1000 * n + 10 * k + s))
            for k, (n, q) in enumerate((n, q) for n in ORDERS for q in SIGNINGS)
            for s, p in enumerate((0.0, 0.15, 0.5, 1.0))]


def assert_rows_match_oracle(graphs):
    f = bounds._batch_facts(_Union.of(graphs))
    results = bounds._results(f)
    for b in range(len(graphs)):
        assert results[b] == oracle_evaluation(f.take(slice(b, b + 1))), b
    return f


class TestRowsMatchTheScalarFormulas:
    def test_mixed_order_batches(self):
        graphs = mixed_graphs()
        order = np.random.default_rng(7).permutation(len(graphs)).tolist()
        shuffled = [graphs[k] for k in order]
        for lo in range(0, len(shuffled), 17):  # batches of mixed orders
            assert_rows_match_oracle(shuffled[lo:lo + 17])
        assert_rows_match_oracle(graphs)

    def test_python_int_path(self, monkeypatch):
        monkeypatch.setattr(sgraph, "_exact_dtype", lambda bound, limit=2 ** 63: object)
        monkeypatch.setattr(bounds, "_exact_dtype", lambda bound, limit=2 ** 63: object)
        f = assert_rows_match_oracle(mixed_graphs())
        assert f.p1.dtype == f.net3.dtype == object

    def test_sums_past_2_53(self, monkeypatch):
        # Odd offsets past 2^53 leave every radicand positive; an int64 row
        # would divide or root them after rounding, or overflow its products.
        real = bounds._degree_stats

        def planted(u):
            d, d_neg, nds, sums = real(u)
            sums["s2"] = sums["s2"] + (2 ** 55 + 1)
            sums["s3"] = sums["s3"] + (2 ** 57 + 3)
            for key in ("net1", "net2", "net3"):
                sums[key] = sums[key] + (2 ** 54 + 7)
            return d, d_neg, nds, sums

        monkeypatch.setattr(bounds, "_degree_stats", planted)
        graphs = [g for g in mixed_graphs() if g.n <= 10]
        f = assert_rows_match_oracle(graphs)
        assert f.p2.dtype == object and max(f.p2.tolist()) > 2 ** 55


def planting(target_rows):
    """A ``_degree_stats`` that plants, on each graph whose text is a key of
    ``target_rows``, the entries of its value."""
    real = bounds._degree_stats

    def planted(u):
        d, d_neg, nds, sums = real(u)
        for b in range(len(u.n)):
            for key, value in target_rows.get(serialize_signed_graph(u.graph(b)), {}).items():
                sums[key][b] = value
        return d, d_neg, nds, sums

    return planted


class TestAssertOrder:
    CFG = GeneratorConfig(n=8, edge_prob=0.6, neg_prob=0.5, seed=123, require_connected=True)

    def graph_seeds(self, trials):
        seeds = SplitMix64(self.CFG.seed)
        return [seeds.next_u64() for _ in range(2 * trials)][::2]

    def text(self, seed):
        return serialize_signed_graph(oracle_generate(replace(self.CFG, seed=seed)))

    def test_lowest_trial_then_first_row(self, monkeypatch):
        # Trial 5 fails LB-NET-3, the catalog's third row; trial 3 fails its
        # fifth and sixth rows, UB-WANG-GLOBAL (edge_deg_max planted) and
        # UB-RANK (s2 planted).  The batch meets trial 5's row first, yet
        # the loop it replaced stopped at trial 3, on UB-WANG-GLOBAL.
        g_seeds = self.graph_seeds(6)
        monkeypatch.setattr(bounds, "_degree_stats", planting({
            self.text(g_seeds[5]): {"net3": -1},
            self.text(g_seeds[3]): {"s2": 0, "edge_deg_max": -10 ** 6},
        }))
        with pytest.raises(InternalInconsistencyError) as want:
            oracle_verify(self.CFG, 6, 1e-9)
        for budget in (1 << 22, 5 * 64 * 2):  # one chunk, or chunks of 2 trials
            monkeypatch.setattr(harness, "_BATCH_ELEMENTS", budget)
            with pytest.raises(InternalInconsistencyError) as got:
                verify(self.CFG, 6)
            assert str(got.value) == str(want.value)
        assert str(want.value).startswith(f"trial=3 seed={g_seeds[3]}: UB-WANG-GLOBAL: radicand ")

    def test_two_rows_of_one_graph_name_the_first(self, monkeypatch):
        monkeypatch.setattr(bounds, "_degree_stats", planting({
            serialize_signed_graph(K3M): {"net3": -5, "s2": 0}}))
        f = bounds._batch_facts(_Union.of([K3P_K3N, K3M, K3M]))
        with pytest.raises(InternalInconsistencyError) as err:
            bounds._scores(f)
        assert str(err.value) == "LB-NET-3: cubic moment -5 < 0 on a PSD matrix"
        assert err.value.graph == 1

    def test_a_guarded_off_row_does_not_assert(self, monkeypatch):
        # K3P_K3N is disconnected, so its UB-WANG-GLOBAL radicand is never
        # checked; K3M's is.
        monkeypatch.setattr(bounds, "_degree_stats", planting({
            serialize_signed_graph(K3P_K3N): {"edge_deg_max": -10 ** 6}}))
        f = bounds._batch_facts(_Union.of([K3P_K3N, K3M]))
        values, applicable = bounds._scores(f)
        row = bounds.SIGNED_CATALOG.index("UB-WANG-GLOBAL")
        assert not applicable[row, 0] and math.isnan(values[row, 0]) and applicable[row, 1]
        assert bounds.ub_wang_global(K3P_K3N).guard_reason == "graph not connected"
        monkeypatch.setattr(bounds, "_degree_stats", planting({
            serialize_signed_graph(K3M): {"edge_deg_max": -10 ** 6}}))
        with pytest.raises(InternalInconsistencyError) as err:
            bounds._scores(bounds._batch_facts(_Union.of([K3P_K3N, K3M])))
        assert err.value.graph == 1 and str(err.value).startswith("UB-WANG-GLOBAL: radicand ")


class TestVerifyBuildsNoResults:
    def test_a_pass_builds_no_bound_result(self, monkeypatch):
        built, results = [], bounds._results
        monkeypatch.setattr(bounds.BoundResult, "__post_init__",
                            lambda self: built.append(self.bound_id))
        monkeypatch.setattr(bounds, "_results", lambda *args: built.append(args) or results(*args))
        cfg = GeneratorConfig(n=10, edge_prob=0.5, neg_prob=0.5, seed=2020)
        rep = verify(cfg, 200)
        assert rep.ok and rep.trials == 200
        assert built == []

    def test_a_failing_run_equals_the_trial_loop(self):
        cfg = GeneratorConfig(n=10, edge_prob=0.5, neg_prob=0.5, seed=2020)
        got = verify(cfg, 40, -1.0)
        assert got.failures and got == oracle_verify(cfg, 40, -1.0)
