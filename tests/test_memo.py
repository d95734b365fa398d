"""What a graph stores, and what is computed from it on each call.

A graph stores its vertex count and its ``edge_arrays`` when it is built,
and its edge set when something first reads it; nothing else.
``degree_profile``, ``triangle_stats``, ``balance_info``, ``laplacian`` and
every bound are computed from the edge arrays on each call.  These tests
check that every statistic equals the one of an equal but distinct graph.
That a graph holds no other state, that graphs derived from another graph
match fresh ones, pickling and repeated evaluation are checked in
``tests/test_graph_state.py``, which also holds the shared helpers.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from common import K3M, K3N, K3P_K3N, random_graphs
from sglap import laplacian, parse_signed_graph, serialize_signed_graph
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
