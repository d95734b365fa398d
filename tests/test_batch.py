"""The batch path: ``verify`` generates, scores and solves all its trials as
one disjoint union of graphs, and ``evaluate_all`` is a batch of one.

Generated graphs and verification reports must equal the scalar loops
frozen in ``tests/common.py``; a graph's evaluation must not depend on the
batch it sits in; the chunks a large batch is cut into must not change a
report; and the integer aggregates must stay exact past int64.
"""

import inspect
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from common import EMPTY3, K1, K3M, K3P_K3N, oracle_generate, oracle_verify, random_graphs
from sglap import (
    GenerationError,
    GeneratorConfig,
    InternalInconsistencyError,
    SignedGraph,
    SplitMix64,
    balance_info,
    degree_profile,
    evaluate_all,
    generate,
    serialize_signed_graph,
    unsigned_corollaries,
    verify,
)
from sglap import bounds, harness, sgraph, spectra
from sglap.bounds import BoundEvaluation, _batch_facts, _results
from sglap.sgraph import _exact_dtype, _Union, edge_arrays
from test_sgraph import signed_graphs

ORDERS = (1, 2, 3, 10, 30)


def configs(require_connected):
    """Generator configs over the orders and densities the batch must match
    the scalar loop on.  An edgeless connected config never succeeds, so
    require_connected draws a positive edge_prob."""
    probs = (0.5, 1.0) if require_connected else (0.0, 0.5, 1.0)
    return st.builds(GeneratorConfig, n=st.sampled_from(ORDERS), edge_prob=st.sampled_from(probs),
                     neg_prob=st.sampled_from((0.0, 0.5, 1.0)),
                     seed=st.integers(0, 2 ** 64 + 5), require_connected=st.just(require_connected))


def assert_same_graph(got: SignedGraph, want: SignedGraph) -> None:
    assert got == want and got.n == want.n
    for a, b in zip(edge_arrays(got), edge_arrays(want), strict=True):
        assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)


class TestGenerateMatchesScalarLoop:
    @given(st.one_of(configs(False), configs(True)))
    @settings(max_examples=150, deadline=None)
    def test_random_configs(self, cfg):
        assert_same_graph(generate(cfg), oracle_generate(cfg))

    def test_retries_consume_the_stream(self):
        # Sparse connected configs need several scans of one stream each.
        retried = 0
        for seed in range(40):
            cfg = GeneratorConfig(n=8, edge_prob=0.25, neg_prob=0.5, seed=seed,
                                  require_connected=True)
            want = oracle_generate(cfg)
            assert_same_graph(generate(cfg), want)
            retried += oracle_generate(replace(cfg, require_connected=False)) != want
        assert retried >= 10

    def test_batch_equals_each_graph_alone(self):
        cfg = GeneratorConfig(n=9, edge_prob=0.3, neg_prob=0.4, seed=0, require_connected=True)
        seeds = [3, 2 ** 64 - 1, 77, 3, 10 ** 30]
        u = harness._generate(cfg, seeds)
        for b, seed in enumerate(seeds):
            assert_same_graph(u.graph(b), oracle_generate(replace(cfg, seed=seed)))

    def test_blocks_of_draws_match(self, monkeypatch):
        # A budget of a few draws makes every scan cross many blocks.
        for budget in (2, 7, 64):
            monkeypatch.setattr(harness, "_BATCH_ELEMENTS", budget)
            for seed in range(5):
                cfg = GeneratorConfig(n=12, edge_prob=0.6, neg_prob=0.5, seed=seed,
                                      require_connected=seed % 2 == 1)
                assert_same_graph(generate(cfg), oracle_generate(cfg))

    def test_cap_still_raises(self):
        cfg = GeneratorConfig(n=4, edge_prob=0.0, neg_prob=0.5, seed=1, require_connected=True)
        with pytest.raises(GenerationError) as err:
            generate(cfg)
        assert err.value.attempts == 10_000

    def test_retries_share_scans(self, monkeypatch):
        # Each round scans several attempts per stream, their count doubling,
        # so the 10 000 attempts of an exhausted cap take 14 scans, not one each.
        calls, scan = [], harness._scan

        def counted(*args):
            calls.append(args[-1])
            return scan(*args)

        monkeypatch.setattr(harness, "_scan", counted)
        cfg = GeneratorConfig(n=4, edge_prob=0.0, neg_prob=0.5, seed=1, require_connected=True)
        with pytest.raises(GenerationError):
            generate(cfg)
        assert len(calls) <= 15 and sum(calls) == 10_000


class TestVerifyMatchesTrialLoop:
    @given(st.one_of(configs(False), configs(True)), st.integers(1, 6),
           st.sampled_from((1e-9, 0.0, -1.0)))
    @settings(max_examples=80, deadline=None)
    def test_random_configs(self, cfg, trials, tol):
        assert verify(cfg, trials, tol) == oracle_verify(cfg, trials, tol)

    @pytest.mark.parametrize("tol", [1e-9, 0.0, -1e-3, -1.0])
    def test_seeded_configs(self, tol):
        # n = 150 makes BLAS multiply the trace products in blocks.
        for n, p, q in ((10, 0.5, 0.5), (7, 0.2, 1.0), (12, 0.9, 0.0), (2, 1.0, 0.5),
                        (150, 0.5, 0.5)):
            cfg = GeneratorConfig(n=n, edge_prob=p, neg_prob=q, seed=n * 1000 + int(10 * p))
            assert verify(cfg, 12, tol) == oracle_verify(cfg, 12, tol)

    def test_chunks_leave_the_report_unchanged(self, monkeypatch):
        # Room for 0, 1 or 2 trials' matrices per chunk at n = 7 (5 * 49
        # entries each), and for a handful of draws or bit rows.
        cfg = GeneratorConfig(n=7, edge_prob=0.5, neg_prob=0.5, seed=99)
        want = oracle_verify(cfg, 9, -1.0)
        assert want.failures and want.identity_failures
        for budget in (1, 245, 490):
            for module in (harness, spectra, sgraph):
                monkeypatch.setattr(module, "_BATCH_ELEMENTS", budget)
            assert verify(cfg, 9, -1.0) == want

    def test_planted_inconsistency_names_its_trial(self, monkeypatch):
        cfg = GeneratorConfig(n=8, edge_prob=0.6, neg_prob=0.5, seed=123, require_connected=True)
        seeds = SplitMix64(cfg.seed)
        g_seeds = [seeds.next_u64() for _ in range(12)][::2]
        for trial in (0, 3, 5):
            target = serialize_signed_graph(oracle_generate(replace(cfg, seed=g_seeds[trial])))
            real = bounds._degree_stats

            def planted(u, real=real, target=target):
                d, d_neg, nds, sums = real(u)
                for b in range(len(u.n)):
                    if serialize_signed_graph(u.graph(b)) == target:
                        sums["net3"][b] = -1
                return d, d_neg, nds, sums

            monkeypatch.setattr(bounds, "_degree_stats", planted)
            for budget in (1 << 22, 5 * 64 * 2):  # one chunk, or chunks of 2 trials
                monkeypatch.setattr(harness, "_BATCH_ELEMENTS", budget)
                with pytest.raises(InternalInconsistencyError) as err:
                    verify(cfg, 6)
                assert str(err.value) == (f"trial={trial} seed={g_seeds[trial]}: "
                                          "LB-NET-3: cubic moment -1 < 0 on a PSD matrix")
            monkeypatch.undo()


MIXED = [K1, EMPTY3, K3M, K3P_K3N, SignedGraph.from_edges(4, [(1, 2, -1)]),
         *random_graphs(24, base_seed=16_000, n_min=1, n_max=14, prob_lo=0.05)]


def batch_evaluations(graphs):
    """Each graph's evaluation, with the catalog run once on the whole batch."""
    f = _batch_facts(_Union.of(graphs))
    return [BoundEvaluation(results, f.spectrum(b)) for b, results in enumerate(_results(f))]


class TestCompositionInvariance:
    """A graph's evaluation is the same alone and anywhere in a batch of
    mixed orders, including edgeless, disconnected and one-vertex graphs."""

    def test_mixed_batch(self):
        alone = [evaluate_all(g, check=False) for g in MIXED]
        assert batch_evaluations(MIXED) == alone
        assert batch_evaluations(MIXED[::-1]) == alone[::-1]
        assert batch_evaluations(MIXED + MIXED) == alone + alone

    @given(st.lists(signed_graphs(max_n=9), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_random_batches(self, graphs):
        fresh = [SignedGraph(g.n, frozenset(g.edges)) for g in graphs]
        assert batch_evaluations(graphs) == [evaluate_all(g, check=False) for g in fresh]

    def test_chunked_spectra(self, monkeypatch):
        want = batch_evaluations(MIXED)
        for budget in (1, 100, 1000):
            for module in (spectra, sgraph):
                monkeypatch.setattr(module, "_BATCH_ELEMENTS", budget)
            assert batch_evaluations(MIXED) == want


class TestAssertsInTheBatch:
    def test_first_negative_term_names_its_graph_and_edge(self, monkeypatch):
        # With every nds planted as 0, each edge's UB-WANG-EDGE inner term is
        # -2 d_i d_j and its KB-2 radicand (d_i - 2)^2 + (d_j - 2)^2 - 4; the
        # assert must name the first edge of each graph, in edge order.
        graphs = [K3M, SignedGraph.from_edges(4, [(1, 2, 1), (2, 3, -1), (2, 4, 1), (3, 4, 1)])]
        real = bounds._degree_stats

        def planted(u):
            d, d_neg, nds, sums = real(u)
            return d, d_neg, 0 * nds, sums

        monkeypatch.setattr(bounds, "_degree_stats", planted)
        messages = []
        for g in graphs:
            d = (0, *degree_profile(g).d)
            pairs = list(zip(*(column.tolist() for column in edge_arrays(g)[:2])))
            inner = [-2 * d[a] * d[b] for a, b in pairs]
            rad = [(d[a] - 2) ** 2 + (d[b] - 2) ** 2 - 4 for a, b in pairs]
            k = next(k for k, r in enumerate(rad) if r < 0)
            with pytest.raises(InternalInconsistencyError) as wang:
                bounds.ub_wang_edge(g)
            with pytest.raises(InternalInconsistencyError) as kb2:
                bounds.classic_bounds(g)
            assert str(wang.value) == f"UB-WANG-EDGE: inner term {inner[0]} < 0"
            assert str(kb2.value) == f"KB-2: radicand {rad[k]} < 0 on edge {pairs[k][0]},{pairs[k][1]}"
            messages.append((str(wang.value), str(kb2.value)))
        assert messages == [("UB-WANG-EDGE: inner term -8 < 0", "KB-2: radicand -4 < 0 on edge 1,2"),
                            ("UB-WANG-EDGE: inner term -6 < 0", "KB-2: radicand -2 < 0 on edge 1,2")]

    def test_negative_radicands_name_their_bound(self, monkeypatch):
        # With every s2 planted as 0, UB-RANK's radicand is
        # (r-1)(r s1 - s1^2) and UB-WANG-GLOBAL's -2m - (m-1) edmin +
        # (edmin-1) edmax, both negative on these two unbalanced graphs.
        graphs = [K3M, SignedGraph.from_edges(4, [(1, 2, 1), (2, 3, -1), (2, 4, 1), (3, 4, 1)])]
        real = bounds._degree_stats

        def planted(u):
            d, d_neg, nds, sums = real(u)
            sums["s2"] = [0] * len(sums["s2"])
            return d, d_neg, nds, sums

        monkeypatch.setattr(bounds, "_degree_stats", planted)
        messages = []
        for g in graphs:
            prof, b = degree_profile(g), balance_info(g)
            r, s1, m = g.n - b.balanced_count, prof.s1, g.m
            lo, hi = prof.edge_deg_min, prof.edge_deg_max
            with pytest.raises(InternalInconsistencyError) as rank:
                bounds.ub_rank_trace(g)
            with pytest.raises(InternalInconsistencyError) as wang:
                bounds.ub_wang_global(g)
            assert str(rank.value) == f"UB-RANK: radicand {(r - 1) * (r * s1 - s1 * s1)} < 0"
            radicand = -2 * m - (m - 1) * lo + (lo - 1) * hi
            assert str(wang.value) == f"UB-WANG-GLOBAL: radicand {radicand} < 0"
            messages.append((str(rank.value), str(wang.value)))
        assert messages == [("UB-RANK: radicand -36 < 0", "UB-WANG-GLOBAL: radicand -8 < 0"),
                            ("UB-RANK: radicand -96 < 0", "UB-WANG-GLOBAL: radicand -11 < 0")]


class TestExactAggregates:
    """Integer aggregates stay exact: int64 only under a proven bound, and
    Python ints past it."""

    def test_guard_at_its_limits(self):
        assert _exact_dtype(2 ** 63 - 1) is np.int64
        assert _exact_dtype(2 ** 63) is object
        assert _exact_dtype(2 ** 53 - 1, 2 ** 53) is np.int64
        assert _exact_dtype(2 ** 53, 2 ** 53) is object

    @pytest.mark.parametrize("g", [
        # A star and a complete graph maximize d^3 and d * d_neg^2 for their m.
        SignedGraph.from_edges(40, [(1, v, -1) for v in range(2, 41)]),
        SignedGraph.from_edges(25, [(i, j, -1) for i in range(1, 26) for j in range(i + 1, 26)]),
        *random_graphs(10, base_seed=16_500, n_min=5, n_max=30, neg_prob=0.9),
    ])
    def test_bounds_cover_the_aggregates(self, g, monkeypatch):
        # Each bound handed to the guard must be at least every integer its
        # caller derives, checked here in Python ints; on the complete
        # all-negative graph the sum bound is reached.
        bounds_seen = []
        monkeypatch.setattr(sgraph, "_exact_dtype", lambda b, limit=2 ** 63:
                            bounds_seen.append(b) or np.int64)
        monkeypatch.setattr(bounds, "_exact_dtype", lambda b, limit=2 ** 63:
                            bounds_seen.append(b) or np.int64)
        _batch_facts(_Union.of([g]))
        sum_bound, wang_bound = bounds_seen
        i, j, s = (c.tolist() for c in edge_arrays(g))
        d, dn = [0] * (g.n + 1), [0] * (g.n + 1)
        for a, b, sign in zip(i, j, s):
            d[a] += 1
            d[b] += 1
            dn[a] += sign < 0
            dn[b] += sign < 0
        nds = [0] * (g.n + 1)
        for a, b in zip(i, j):
            nds[a] += d[b]
            nds[b] += d[a]
        terms = [sum(x ** 3 for x in d), sum(x * y * y for x, y in zip(d, dn)),
                 sum(abs(dn[a] * dn[b]) for a, b in zip(i, j))]
        terms.append(4 * terms[1] + 8 * terms[2])
        assert max(terms) <= sum_bound
        inner = [d[a] * nds[a] + d[b] * nds[b] - 2 * d[a] * d[b] for a, b in zip(i, j)]
        assert max((d[a] + d[b] - 2) * x for (a, b), x in zip(zip(i, j), inner)) <= wang_bound

    def test_python_int_path_gives_the_same_results(self, monkeypatch):
        graphs = MIXED + random_graphs(10, base_seed=16_700, n_min=20, n_max=40)
        want = batch_evaluations(graphs)
        monkeypatch.setattr(sgraph, "_exact_dtype", lambda bound, limit=2 ** 63: object)
        monkeypatch.setattr(bounds, "_exact_dtype", lambda bound, limit=2 ** 63: object)
        assert batch_evaluations(graphs) == want

    def test_python_int_path_is_exact_past_int64(self):
        # Values past 2^63 through the same expressions the aggregates use.
        d = np.array([2 ** 21, 3], dtype=np.int64).astype(_exact_dtype(2 ** 64))
        assert (d ** 3).tolist() == [2 ** 63, 27]
        big = (d * d).astype(_exact_dtype(2 ** 64)) * np.array([2 ** 40 + 1, 1])
        assert big.tolist()[0] == 2 ** 82 + 2 ** 42
        assert (big / np.array([3, 1]).astype(object)).tolist()[0] == (2 ** 82 + 2 ** 42) / 3


class TestTheBatchServesTheCatalog:
    """The batch layer computes what the catalog reads, for a union of
    graphs and nothing else; ``verify`` builds its identity checks' matrices
    itself."""

    def test_takes_the_union_only(self):
        for layer in (bounds._batch_facts, spectra._batch_spectra):
            assert len(inspect.signature(layer).parameters) == 1
        f = _batch_facts(_Union.of([generate(GeneratorConfig(10, 0.5, 0.5, seed))
                                    for seed in range(20)]))
        assert not {"switch_diff", "matrix_traces"} & set(vars(f))
        for key in bounds._EXACT:
            column = getattr(f, key)
            assert column.dtype == object and {type(x) for x in column.tolist()} == {int}, key

    def test_unsigned_corollaries_score_only_their_rows(self, monkeypatch):
        # With every nds planted as 0, UB-WANG-EDGE asserts on K3M and on
        # both its signings; no unsigned corollary reads that row.
        want = unsigned_corollaries(K3M)
        real = bounds._degree_stats

        def planted(u):
            d, d_neg, nds, sums = real(u)
            return d, d_neg, 0 * nds, sums

        monkeypatch.setattr(bounds, "_degree_stats", planted)
        with pytest.raises(InternalInconsistencyError) as err:
            evaluate_all(K3M)
        assert str(err.value) == "UB-WANG-EDGE: inner term -8 < 0"
        assert unsigned_corollaries(K3M) == want
