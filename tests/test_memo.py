"""Per-graph memoisation of the sign-blind statistics.

``degree_profile``, ``triangle_stats``, ``balance_info`` and ``laplacian``
are computed once per graph object.  These tests check
that a memoised value always equals a fresh computation on an equal but
distinct graph, that repeated evaluation is bit-identical, and that graphs
derived from another graph never see its memo.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from common import K3M, K3P, K3P_K3N, random_graphs
from sglap import (
    SignedGraph,
    balance_info,
    degree_profile,
    evaluate_all,
    induced_sign_subgraph,
    laplacian,
    sign_all,
    switch,
    triangle_stats,
)
from test_sgraph import signed_graphs

STATS = (degree_profile, triangle_stats, balance_info)


def twin(g: SignedGraph) -> SignedGraph:
    """An equal graph that shares no object, and so no memo, with ``g``."""
    return SignedGraph(g.n, frozenset(g.edges))


def assert_stats_equal_fresh(g: SignedGraph) -> None:
    fresh = twin(g)
    assert fresh == g and fresh is not g
    for stat in STATS:
        assert stat(g) == stat(fresh)
    assert laplacian(g).dtype == laplacian(fresh).dtype
    assert np.array_equal(laplacian(g), laplacian(fresh))


def warm(g: SignedGraph) -> None:
    for stat in STATS:
        stat(g)
    laplacian(g)


class TestMemoMatchesFresh:
    def test_seeded_corpus(self):
        for g in random_graphs(200, base_seed=4_100, n_max=12, n_min=1):
            warm(g)
            assert_stats_equal_fresh(g)

    @given(signed_graphs(max_n=9))
    @settings(max_examples=100, deadline=None)
    def test_random_graphs(self, g):
        warm(g)
        assert_stats_equal_fresh(g)

    def test_second_call_returns_the_stored_value(self):
        g = twin(K3M)
        for fn in (*STATS, laplacian):
            assert fn(g) is fn(g)
            assert fn(g) is not fn(twin(g))

    def test_memo_is_invisible_to_equality_hash_and_repr(self):
        g = twin(K3P_K3N)
        before = (hash(g), repr(g))
        warm(g)
        assert g == K3P_K3N
        assert (hash(g), repr(g)) == before

    def test_cached_values_are_read_only(self):
        g = twin(K3M)
        with pytest.raises(ValueError):
            laplacian(g)[0, 0] = 7


class TestRepeatedEvaluation:
    def test_evaluate_all_twice_is_bit_identical(self):
        for g in random_graphs(60, base_seed=4_300, n_max=12, n_min=1):
            first = evaluate_all(g, check=False)
            second = evaluate_all(g, check=False)
            assert first == second
            assert first == evaluate_all(twin(g), check=False)

    def test_concurrent_first_calls_agree(self):
        graphs = random_graphs(8, base_seed=4_500, n_max=12, n_min=6)
        want = [evaluate_all(twin(g), check=False) for g in graphs]
        got = [[None] * len(graphs) for _ in range(8)]

        def worker(slot):
            for k, g in enumerate(graphs):
                got[slot][k] = evaluate_all(g, check=False)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert all(row == want for row in got)


class TestDerivedGraphsStartEmpty:
    def test_switch_recomputes_balance(self):
        g = twin(K3P)
        assert balance_info(g).certificate == (1, 1, 1)
        switched = switch(g, (-1, 1, 1))
        assert sorted(s for _, _, s in switched.edges) == [-1, -1, 1]
        assert balance_info(switched).certificate == (1, -1, -1)
        assert_stats_equal_fresh(switched)

    def test_sign_all_recomputes_statistics(self):
        g = twin(K3M)
        warm(g)
        neg = sign_all(g, -1)
        assert degree_profile(neg).d_neg == (2, 2, 2)
        assert triangle_stats(neg).t_net == -1
        assert balance_info(neg).balanced_count == 0
        assert laplacian(neg).tolist() == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
        assert_stats_equal_fresh(neg)
        pos = sign_all(g, 1)
        assert balance_info(pos).balanced_count == 1
        assert_stats_equal_fresh(pos)

    def test_induced_subgraph_recomputes_statistics(self):
        g = twin(K3M)
        warm(g)
        neg = induced_sign_subgraph(g, -1)
        assert degree_profile(neg).d == (1, 0, 1)
        assert triangle_stats(neg).t == 0
        assert balance_info(neg).component_count == 2
        assert_stats_equal_fresh(neg)

    @given(signed_graphs(max_n=9), st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_derived_graph_matches_fresh(self, g, data):
        warm(g)
        theta = data.draw(st.lists(st.sampled_from((1, -1)), min_size=g.n, max_size=g.n))
        derived = (
            switch(g, tuple(theta)),
            sign_all(g, 1),
            sign_all(g, -1),
            induced_sign_subgraph(g, 1),
            induced_sign_subgraph(g, -1),
        )
        for h in derived:
            warm(h)
            assert_stats_equal_fresh(h)
        assert_stats_equal_fresh(g)
        assert balance_info(derived[0]).balanced_count == balance_info(g).balanced_count

