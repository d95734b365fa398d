"""A graph's state: what a graph stores, and what is computed from it on
each call.

A graph stores its vertex count and its ``edge_arrays`` when it is built,
and its edge set when something first reads it; nothing else.  These tests
check that a pickled graph comes back equal, through the checked
constructor, and that repeated or concurrent evaluation is bit-identical.
The helpers here compare a graph's statistics with those of an equal but
distinct graph.
"""

import pickle
import sys
import threading

import numpy as np
import pytest

from common import K3P_K3N, random_graphs
from sglap import (
    SignedGraph,
    balance_info,
    degree_profile,
    evaluate_all,
    laplacian,
    parse_signed_graph,
    serialize_signed_graph,
    triangle_stats,
)
from sglap.sgraph import edge_arrays

STATS = (degree_profile, triangle_stats, balance_info)


def twin(g: SignedGraph) -> SignedGraph:
    """An equal graph that shares no object with ``g``."""
    return SignedGraph(g.n, frozenset(g.edges))


def assert_stats_equal_fresh(g: SignedGraph) -> None:
    fresh = twin(g)
    assert fresh == g and fresh is not g
    for stat in STATS:
        assert stat(g) == stat(fresh)
    assert laplacian(g).dtype == laplacian(fresh).dtype
    assert np.array_equal(laplacian(g), laplacian(fresh))
    for got, want in zip(edge_arrays(g), edge_arrays(fresh), strict=True):
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
    i, j, sign = edge_arrays(fresh)
    assert sorted(g.edges) == list(zip(i.tolist(), j.tolist(), sign.tolist()))


def warm(g: SignedGraph) -> None:
    for stat in STATS:
        stat(g)
    laplacian(g)
    edge_arrays(g)


class TestPickle:
    """A graph pickles to an equal graph, whatever was computed on it: only
    the edge arrays travel, and the copy is built through the checked
    constructor."""

    @staticmethod
    def _graphs():
        built = random_graphs(6, base_seed=4_700, n_min=1, n_max=12) + [twin(K3P_K3N)]
        # Parsed in the serializer's form (held as edge arrays), and in the
        # line reader's form.
        parsed = [parse_signed_graph(serialize_signed_graph(g)) for g in built]
        lines = [parse_signed_graph("# c\n" + serialize_signed_graph(g)) for g in built]
        return built + parsed + lines + [parse_signed_graph("n 4\n1 2 +\n3 2 -\n")]

    @pytest.mark.parametrize("warmed", [False, True])
    def test_round_trip(self, warmed, monkeypatch):
        checked = []
        check = SignedGraph.__post_init__
        monkeypatch.setattr(SignedGraph, "__post_init__",
                            lambda self: checked.append(self) or check(self))
        for g in self._graphs():
            if warmed:
                warm(g)
                evaluate_all(g)
            array_built = "edges" not in g.__dict__
            pickles = [pickle.dumps(g, protocol=protocol)
                       for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            assert ("edges" not in g.__dict__) == array_built
            for data in pickles:
                checked.clear()
                got = pickle.loads(data)
                assert checked == [got]
                # Every copy is built from its edge arrays alone.
                assert "edges" not in got.__dict__
                assert_stats_equal_fresh(got)
                assert got == g and hash(got) == hash(g)
                for column in edge_arrays(got):
                    with pytest.raises(ValueError):
                        column.setflags(write=True)


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
