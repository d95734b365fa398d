import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from common import (
    EMPTY3,
    K2N,
    K2P,
    K3M,
    K3N,
    K3P,
    K3P_K3N,
    P3P,
    oracle_bipartite_components,
    oracle_components,
    oracle_eigs,
    oracle_laplacian,
    random_graphs,
)
from sglap import (
    SignedGraph,
    balance_info,
    eigenvalues,
    induced_sign_subgraph,
    is_connected,
    laplacian,
    laplacian_rank,
    sign_all,
    switch,
    switching_equivalent,
)
from test_sgraph import signed_graphs


@st.composite
def graphs_with_switchings(draw):
    g = draw(signed_graphs())
    theta = tuple(draw(st.sampled_from((1, -1))) for _ in range(g.n))
    return g, theta


class TestSwitch:
    def test_flips_single_edge(self):
        assert switch(K2N, (1, -1)) == K2P

    def test_triangle_example(self):
        got = switch(K3N, (-1, 1, 1))
        assert got == SignedGraph.from_edges(3, [(1, 2, 1), (1, 3, 1), (2, 3, -1)])

    def test_identity_switching(self):
        assert switch(K3M, (1, 1, 1)) == K3M

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            switch(K3M, (1, -1))

    def test_bad_values_rejected(self):
        for g in (K3M, EMPTY3):  # on EMPTY3 no edge sign would show the 0
            with pytest.raises(ValueError, match=r"switching values must be \+1 or -1"):
                switch(g, (1, 0, 1))

    @given(graphs_with_switchings())
    @settings(max_examples=200)
    def test_involutive(self, gt):
        g, theta = gt
        assert switch(switch(g, theta), theta) == g


class TestBalanceInfo:
    def test_negative_triangle_unbalanced(self):
        info = balance_info(K3N)
        assert (info.component_count, info.balanced_count) == (1, 0)
        assert info.component_balanced == (False,)

    def test_disjoint_union(self):
        info = balance_info(K3P_K3N)
        assert (info.component_count, info.balanced_count) == (2, 1)
        assert info.component_balanced == (True, False)
        assert info.component_labels == (0, 0, 0, 1, 1, 1)

    def test_forest_always_balanced(self):
        forest = SignedGraph.from_edges(5, [(1, 2, -1), (2, 3, 1), (4, 5, -1)])
        info = balance_info(forest)
        assert info.balanced_count == info.component_count == 2

    def test_certificate_positivizes_balanced_components(self):
        for g in random_graphs(50, base_seed=300, n_max=10):
            info = balance_info(g)
            switched = switch(g, info.certificate)
            for i, _, s in switched.edges:
                if info.component_balanced[info.component_labels[i - 1]]:
                    assert s == 1

    def test_equal_graphs_built_in_different_orders_agree(self):
        # A set iterates in an order that depends on how it was built; the
        # certificate on an unbalanced component follows the BFS order, so it
        # must not follow the edge set's iteration order.
        rng = random.Random(17)
        for g in random_graphs(300, base_seed=7_700, n_min=4, n_max=14):
            want = balance_info(g)
            edges = list(g.edges)
            for _ in range(3):
                rng.shuffle(edges)
                assert balance_info(SignedGraph.from_edges(g.n, edges)) == want
            larger = g.edges | {(v, v + 1, -1) for v in range(g.n + 1, g.n + 60)}
            filtered = SignedGraph(g.n, frozenset(e for e in larger if e[1] <= g.n))
            assert filtered == g
            assert balance_info(filtered) == want

    @given(signed_graphs())
    @settings(max_examples=100)
    def test_all_positive_is_balanced(self, g):
        info = balance_info(sign_all(g, 1))
        assert info.balanced_count == info.component_count

    @given(signed_graphs())
    @settings(max_examples=100)
    def test_component_count_matches_bfs_oracle(self, g):
        assert balance_info(g).component_count == oracle_components(g)
        assert is_connected(g) == (oracle_components(g) == 1)


class TestLaplacianRank:
    @pytest.mark.parametrize("g,rank", [(K2P, 1), (K3N, 3), (K3P_K3N, 5)])
    def test_examples(self, g, rank):
        assert laplacian_rank(g) == rank

    @given(signed_graphs(max_n=12))
    @settings(max_examples=100, deadline=None)
    def test_matches_numerical_rank(self, g):
        spec = eigenvalues(laplacian(g))
        assert laplacian_rank(g) == sum(1 for v in spec if v > 1e-8)


class TestSwitchingEquivalent:
    def test_mixed_and_all_negative_triangle(self):
        verdict = switching_equivalent(K3M, K3N)
        assert verdict.equivalent
        assert switch(K3M, verdict.witness) == K3N
        # equal spectra back the verdict
        ours = oracle_eigs(oracle_laplacian(K3M))
        theirs = oracle_eigs(oracle_laplacian(K3N))
        assert np.allclose(ours, theirs, atol=1e-9)

    def test_mixed_vs_all_positive(self):
        verdict = switching_equivalent(K3M, K3P)
        assert not verdict.equivalent
        assert verdict.witness is None

    def test_different_underlying_graphs(self):
        assert not switching_equivalent(K3P, P3P).equivalent
        assert not switching_equivalent(P3P, K3P).equivalent  # every pair of P3P is in K3P
        assert not switching_equivalent(K2P, K3P).equivalent

    def test_same_size_different_pairs(self):
        path = SignedGraph.from_edges(3, [(1, 2, 1), (2, 3, 1)])
        star = SignedGraph.from_edges(3, [(1, 2, 1), (1, 3, 1)])
        assert switching_equivalent(path, star) == (False, None)
        assert switching_equivalent(star, path) == (False, None)

    @given(graphs_with_switchings())
    @settings(max_examples=200)
    def test_switched_graph_is_equivalent(self, gt):
        g, theta = gt
        switched = switch(g, theta)
        verdict = switching_equivalent(g, switched)
        assert verdict.equivalent
        assert switch(g, verdict.witness) == switched

    def test_equivalence_relation_on_random_triples(self):
        base = random_graphs(20, base_seed=500, n_max=8)
        rng = np.random.default_rng(7)
        for g in base:
            thetas = [
                tuple(rng.choice((1, -1)) for _ in range(g.n))
                for _ in range(2)
            ]
            a, b, c = g, switch(g, thetas[0]), switch(g, thetas[1])
            assert switching_equivalent(a, a).equivalent
            ab, ba = switching_equivalent(a, b), switching_equivalent(b, a)
            assert ab.equivalent and ba.equivalent
            bc, ac = switching_equivalent(b, c), switching_equivalent(a, c)
            assert bc.equivalent and ac.equivalent

    def test_flipped_cycle_edge_on_random_graphs(self):
        # Flipping an edge that lies on a cycle negates that cycle in the
        # product signature, so the pair is inequivalent in both orders.
        rng = np.random.default_rng(11)
        checked = 0
        for g in random_graphs(30, base_seed=900, n_min=4, n_max=10):
            b = switch(g, tuple(rng.choice((1, -1)) for _ in range(g.n)))
            edges = sorted(b.edges)
            for k, (i, j, s) in enumerate(edges):
                rest = SignedGraph(g.n, frozenset(edges[:k] + edges[k + 1:]))
                if oracle_components(rest) != oracle_components(b):
                    continue  # a bridge lies on no cycle
                flipped = SignedGraph(g.n, rest.edges | {(i, j, -s)})
                ab, ba = switching_equivalent(g, flipped), switching_equivalent(flipped, g)
                assert not ab.equivalent and not ba.equivalent
                assert ab.witness is None and ba.witness is None
                checked += 1
        assert checked > 100


class TestInducedSubgraphs:
    def test_negative_part_of_mixed_triangle(self):
        got = induced_sign_subgraph(K3M, -1)
        assert got == SignedGraph(3, frozenset({(1, 3, -1)}))

    def test_positive_part_of_all_negative(self):
        got = induced_sign_subgraph(K3N, 1)
        assert got.n == 3 and got.m == 0

    def test_positive_part_of_all_positive(self):
        assert induced_sign_subgraph(K3P, 1) == K3P

    @given(signed_graphs())
    @settings(max_examples=100)
    def test_parts_partition_edges(self, g):
        pos = induced_sign_subgraph(g, 1)
        neg = induced_sign_subgraph(g, -1)
        assert pos.edges | neg.edges == g.edges
        assert not pos.edges & neg.edges


def bipartite_components(g: SignedGraph) -> int:
    """Bipartite component count as the bounds use it: an all-negative cycle
    is positive iff its length is even, so the balanced components of the
    all-negative signing are exactly the bipartite ones."""
    return balance_info(sign_all(g, -1)).balanced_count


class TestBipartiteComponents:
    def test_examples(self):
        assert bipartite_components(K3P) == 0
        assert bipartite_components(P3P) == 1
        k3_p3 = SignedGraph.from_edges(
            6, [(1, 2, 1), (2, 3, 1), (1, 3, 1), (4, 5, 1), (5, 6, 1)]
        )
        assert bipartite_components(k3_p3) == 1

    @given(signed_graphs())
    @settings(max_examples=200)
    def test_matches_all_negative_balance(self, g):
        assert bipartite_components(g) == oracle_bipartite_components(g)


class TestSpectrumInvariance:
    @given(graphs_with_switchings())
    @settings(max_examples=100, deadline=None)
    def test_switching_preserves_spectrum(self, gt):
        g, theta = gt
        before = eigenvalues(laplacian(g))
        after = eigenvalues(laplacian(switch(g, theta)))
        assert max(abs(a - b) for a, b in zip(before, after)) <= 1e-9
