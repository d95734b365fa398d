"""What a graph stores, and what is computed from it on each call.

A graph stores its vertex count and its ``edge_arrays`` when it is built,
and its edge set when something first reads it; nothing else.
``degree_profile``, ``triangle_stats``, ``balance_info``, ``laplacian`` and
every bound are computed from the edge arrays on each call.  These tests
check that every statistic equals the one of an equal but distinct graph,
and that graphs derived from another graph match fresh ones.  That a graph
holds no other state, pickling and repeated evaluation are checked in
``tests/test_graph_state.py``, which also holds the shared helpers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from common import K3M, K3N, K3P, K3P_K3N, one_sign_subgraph, random_graphs
from sglap import (
    balance_info,
    degree_profile,
    laplacian,
    parse_signed_graph,
    serialize_signed_graph,
    sign_all,
    switch,
    triangle_stats,
)
from sglap.sgraph import edge_arrays
from test_graph_state import STATS, assert_stats_equal_fresh, twin, warm
from test_sgraph import signed_graphs


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

    def test_second_call_returns_an_equal_value(self):
        # Only the edge arrays are stored; every statistic is computed again
        # and comes out equal.
        g = twin(K3M)
        assert edge_arrays(g) is edge_arrays(g)
        assert edge_arrays(g) is not edge_arrays(twin(g))
        for fn in STATS:
            assert fn(g) == fn(g) == fn(twin(g))
        assert np.array_equal(laplacian(g), laplacian(g))

    def test_statistics_leave_equality_hash_and_repr_unchanged(self):
        g = twin(K3P_K3N)
        before = (hash(g), repr(g))
        warm(g)
        assert g == K3P_K3N
        assert (hash(g), repr(g)) == before

    def test_edge_arrays_are_read_only(self):
        g = twin(K3M)
        for column in edge_arrays(g):
            with pytest.raises(ValueError):
                column[0] = 7
            with pytest.raises(ValueError):
                column.setflags(write=True)

    def test_laplacian_reads_the_stored_edge_arrays(self, monkeypatch):
        # Every graph stores its edge arrays when it is built, so the
        # Laplacian neither reads a tuple-built graph's edge set again
        # (np.fromiter would fail) nor builds a parsed graph's.
        g = twin(K3M)
        parsed = parse_signed_graph(serialize_signed_graph(K3N))

        def no_second_read(*args, **kwargs):
            raise AssertionError("edge set read twice")

        monkeypatch.setattr(np, "fromiter", no_second_read)
        assert laplacian(g).tolist() == [[2, -1, 1], [-1, 2, -1], [1, -1, 2]]
        assert laplacian(parsed).tolist() == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
        assert "edges" not in parsed.__dict__


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
        neg = one_sign_subgraph(g, -1)
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
            one_sign_subgraph(g, 1),
            one_sign_subgraph(g, -1),
        )
        for h in derived:
            warm(h)
            assert_stats_equal_fresh(h)
        assert_stats_equal_fresh(g)
        assert balance_info(derived[0]).balanced_count == balance_info(g).balanced_count
