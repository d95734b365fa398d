"""What a graph stores, and what is computed from it on each call.

A graph stores its vertex count and its ``edge_arrays`` when it is built,
and its edge set when something first reads it; nothing else.
``degree_profile``, ``triangle_stats``, ``balance_info``, ``laplacian`` and
every bound are computed from the edge arrays on each call.  These tests
check that computing statistics leaves a graph's equality, hash, repr and
edge arrays as they were, and that the Laplacian reads the stored arrays.
That every statistic equals the one of an equal but distinct graph, that a
graph holds no other state, that graphs derived from another graph match
fresh ones, pickling and repeated evaluation are checked in
``tests/test_graph_state.py``, which also holds the shared helpers.
"""

import numpy as np
import pytest

from common import K3M, K3N, K3P_K3N
from sglap import laplacian, parse_signed_graph, serialize_signed_graph
from sglap.sgraph import edge_arrays
from test_graph_state import twin, warm


class TestMemoMatchesFresh:
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
