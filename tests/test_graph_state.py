"""A graph's state: what a graph stores, and what is computed from it on
each call.

A graph stores its vertex count and its ``edge_arrays`` when it is built,
and its edge set when something first reads it; nothing else.  These tests
check that a graph holds no other state, however it was made and whatever
was computed on it, that graphs derived from another graph (switched,
signed all one way, one-sign subgraphs) match fresh ones, that a pickled
graph comes back equal, through the checked constructor, and that
repeated or concurrent evaluation is bit-identical.
The helpers here compare a graph's statistics with those of an equal but
distinct graph.
"""

import dataclasses
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from common import K3M, K3P, K3P_K3N, one_sign_subgraph, random_graphs
import sglap
from sglap import (
    GeneratorConfig,
    SignedGraph,
    balance_info,
    degree_profile,
    evaluate_all,
    generate,
    laplacian,
    parse_signed_graph,
    serialize_signed_graph,
    sign_all,
    switch,
    triangle_stats,
)
from sglap.sgraph import edge_arrays
from test_sgraph import signed_graphs

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


def compute_everything(g: SignedGraph) -> None:
    """Every public statistic, matrix, bound and rendering of ``g``."""
    warm(g)
    evaluate_all(g, check=False)
    for name in ("lb_net_mean", "lb_net_sq", "lb_net_cubic", "ub_wang_edge", "ub_wang_global",
                 "ub_rank_trace", "lb_trace_sq", "lb_trace_cubic_a", "lb_trace_cubic_b",
                 "ub_all_negative", "lb_interlacing", "classic_bounds", "unsigned_corollaries",
                 "power_traces", "is_connected", "laplacian_rank", "serialize_signed_graph"):
        getattr(sglap, name)(g)
    for k in (1, 2, 3):
        sglap.rayleigh_moment(g, k)
    hash(g), repr(g), g == twin(g)


class TestNoPerGraphState:
    """A graph holds its vertex count, its edge arrays and, once something
    reads it, its edge set, and nothing else: no cache of any statistic."""

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(SignedGraph)] == ["n", "edges", "_arrays"]

    def test_built_parsed_switched_and_unpickled_graphs(self):
        for base in random_graphs(6, base_seed=4_900, n_min=1, n_max=12) + [twin(K3P_K3N)]:
            text = serialize_signed_graph(base)
            made = {
                "built": twin(base),
                "from_edges": SignedGraph.from_edges(base.n, [(j, i, s) for i, j, s in base.edges]),
                "parsed": parse_signed_graph(text),
                "parsed by lines": parse_signed_graph("# c\n" + text),
                "switched": switch(base, (-1,) * base.n),
                "all negative": sign_all(base, -1),
                "unpickled": pickle.loads(pickle.dumps(base)),
                "generated": generate(GeneratorConfig(n=base.n, edge_prob=0.5, neg_prob=0.5,
                                                      seed=base.n)),
            }
            for how, g in made.items():
                compute_everything(g)
                state = set(vars(g))
                assert {"n", "_arrays"} <= state <= {"n", "_arrays", "edges"}, how


class TestDerivedGraphsMatchFresh:
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
