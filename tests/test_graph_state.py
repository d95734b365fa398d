"""A graph's state: what a graph stores, and what is computed from it on
each call.

A graph stores its vertex count and its ``edge_arrays`` when it is built,
and its edge set when something first reads it; nothing else.  These tests
check that every statistic equals the one of an equal but distinct graph,
that computing statistics leaves a graph's equality, hash, repr and edge
arrays as they were, that the Laplacian reads the stored edge arrays,
that the edge arrays are unit-stride, read-only rows however the graph was
made, that a graph holds no other state, however it was made and whatever
was computed on it, that graphs derived from another graph (switched,
signed all one way, one-sign subgraphs) match fresh ones, that a pickled
graph comes back equal, through the checked constructor, and that
repeated or concurrent evaluation is bit-identical.
The helpers here compare a graph's statistics with those of an equal but
distinct graph.
"""

import base64
import dataclasses
import pickle
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from common import K3M, K3N, K3P, K3P_K3N, one_sign_subgraph, random_graphs
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
from sglap.sgraph import _Union, edge_arrays
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


class TestStatisticsMatchFresh:
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


# A graph pickled by an earlier release, which held its edges as the
# columns of an (m, 3) block; the pickled form is that block still.
# SignedGraph(5, {(1, 2, +1), (1, 3, -1), (2, 4, -1), (4, 5, +1)}) at
# protocols 2 and 5.
_EARLIER_PICKLES = {
    2: "gAJjc2dsYXAuc2dyYXBoCl91bnBpY2tsZV9lZGdlX2Jsb2NrCnEASwVjbnVtcHkuX2NvcmUubXVsdGlhcnJheQpf"
       "cmVjb25zdHJ1Y3QKcQFjbnVtcHkKbmRhcnJheQpxAksAhXEDY19jb2RlY3MKZW5jb2RlCnEEWAEAAABicQVYBgAA"
       "AGxhdGluMXEGhnEHUnEIh3EJUnEKKEsBSwRLA4ZxC2NudW1weQpkdHlwZQpxDFgCAAAAaThxDYmIh3EOUnEPKEsD"
       "WAEAAAA8cRBOTk5K/////0r/////SwB0cRFiiWgEWHAAAAABAAAAAAAAAAIAAAAAAAAAAQAAAAAAAAABAAAAAAAA"
       "AAMAAAAAAAAAw7/Dv8O/w7/Dv8O/w7/DvwIAAAAAAAAABAAAAAAAAADDv8O/w7/Dv8O/w7/Dv8O/BAAAAAAAAAAF"
       "AAAAAAAAAAEAAAAAAAAAcRJoBoZxE1JxFHRxFWKGcRZScRcu",
    5: "gAWVBAEAAAAAAACMDHNnbGFwLnNncmFwaJSMFF91bnBpY2tsZV9lZGdlX2Jsb2NrlJOUSwWME251bXB5Ll9jb3Jl"
       "Lm51bWVyaWOUjAtfZnJvbWJ1ZmZlcpSTlCiWYAAAAAAAAAABAAAAAAAAAAIAAAAAAAAAAQAAAAAAAAABAAAAAAAA"
       "AAMAAAAAAAAA//////////8CAAAAAAAAAAQAAAAAAAAA//////////8EAAAAAAAAAAUAAAAAAAAAAQAAAAAAAACU"
       "jAVudW1weZSMBWR0eXBllJOUjAJpOJSJiIeUUpQoSwOMATyUTk5OSv////9K/////0sAdJRiSwRLA4aUjAFDlHSU"
       "UpSGlFKULg==",
}


def assert_unit_stride_rows(g: SignedGraph, *, own_signs: bool = False) -> None:
    """``g``'s edge arrays are read-only, C-contiguous, unit-stride int64
    rows laid end to end, ``i`` then ``j`` then ``sign``, as the rows of
    one (3, m) block are; a switched or re-signed graph (``own_signs``)
    keeps its source's ``i`` and ``j`` and holds its signs apart."""
    i, j, sign = edge_arrays(g)
    for row in (i, j, sign):
        assert row.dtype == np.int64 and row.shape == (g.m,) and row.flags.c_contiguous
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row.setflags(write=True)
    if g.m:  # an empty row has no bytes to lay out, nor a meaningful stride
        assert i.strides == j.strides == sign.strides == (8,)
        address = [row.__array_interface__["data"][0] for row in (i, j, sign)]
        assert address[1] == address[0] + 8 * g.m
        if not own_signs:
            assert address[2] == address[1] + 8 * g.m


class TestEdgeBlockLayout:
    """Every graph, however it was made, holds its edges as unit-stride rows."""

    @staticmethod
    def _graphs():
        return ([SignedGraph(4, frozenset()), SignedGraph(4, frozenset({(2, 3, -1)}))]
                + random_graphs(12, base_seed=2_810, n_min=1, n_max=12) + [twin(K3P_K3N)])

    def test_every_construction_path(self):
        rng = random.Random(2810)
        for g in self._graphs():
            text = serialize_signed_graph(g)
            header, *lines = text.splitlines(keepends=True)
            rng.shuffle(lines)
            made = {
                "frozenset": twin(g),
                "from_edges": SignedGraph.from_edges(g.n, [(j, i, s) for i, j, s in g.edges]),
                "parsed": parse_signed_graph(text),
                "parsed shuffled": parse_signed_graph(header + "".join(lines)),
                "parsed by lines": parse_signed_graph("# c\n" + text),
                "union member": _Union.of([K3P, g, K3M]).graph(1),
            }
            assert "edges" not in made["parsed shuffled"].__dict__  # the fast path
            for how, h in made.items():
                assert h == g, how
                assert_unit_stride_rows(h)
            theta = tuple(rng.choice((1, -1)) for _ in range(g.n))
            for h in (switch(g, theta), sign_all(g, 1), sign_all(g, -1)):
                assert_unit_stride_rows(h, own_signs=True)

    def test_unpickled_at_every_protocol(self):
        for g in self._graphs():
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                got = pickle.loads(pickle.dumps(g, protocol=protocol))
                assert got == g
                assert_unit_stride_rows(got)

    @pytest.mark.parametrize("protocol", sorted(_EARLIER_PICKLES))
    def test_earlier_pickle_loads_equal(self, protocol):
        want = SignedGraph(5, frozenset({(1, 2, 1), (1, 3, -1), (2, 4, -1), (4, 5, 1)}))
        data = base64.b64decode(_EARLIER_PICKLES[protocol])
        got = pickle.loads(data)
        assert "edges" not in got.__dict__
        assert got == want and hash(got) == hash(want)
        assert_unit_stride_rows(got)
        assert_stats_equal_fresh(got)
        # This release still writes that form.
        assert pickle.dumps(want, protocol=protocol) == data


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
