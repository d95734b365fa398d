import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from common import (
    EMPTY3,
    K1,
    K2N,
    K2P,
    K3M,
    K3N,
    K3P,
    K3P_K3N,
    P3P,
    laplacian_parts,
    one_sign_subgraph,
    oracle_balance_info,
    oracle_bipartite_components,
    oracle_components,
    oracle_cover_reading,
    oracle_eigs,
    oracle_laplacian,
    oracle_switching_equivalent,
    random_graphs,
)
from sglap import (
    BalanceInfo,
    SignedGraph,
    balance_info,
    eigenvalues,
    is_connected,
    laplacian,
    laplacian_rank,
    parse_signed_graph,
    sign_all,
    switch,
    switching_equivalent,
)
from sglap import balance
from sglap.balance import _cover_reading, _parity_labels
from sglap.sgraph import edge_arrays
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
        # result is read off the edge arrays, sorted by pair, so it must not
        # follow the edge set's iteration order.
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


def _partners(g: SignedGraph, rng: random.Random) -> list[SignedGraph]:
    """Graphs to compare ``g`` with: a switching of g (equivalent), the same
    switching with one edge flipped (inequivalent when that edge lies on a
    cycle), and g with one edge moved to a free pair (equal n and m,
    different pairs)."""
    theta = tuple(rng.choice((1, -1)) for _ in range(g.n))
    switched = switch(g, theta)
    out = [switched]
    if g.m:
        i, j, s = rng.choice(sorted(switched.edges))
        out.append(SignedGraph(g.n, (switched.edges - {(i, j, s)}) | {(i, j, -s)}))
        if g.m < g.n * (g.n - 1) // 2:
            while True:
                a, b = sorted(rng.sample(range(1, g.n + 1), 2))
                if (a, b, 1) not in g.edges and (a, b, -1) not in g.edges:
                    break
            out.append(SignedGraph(g.n, (g.edges - {(i, j, s), (i, j, -s)}) | {(a, b, s)}))
    return out


def _shuffled_text(g: SignedGraph, rng: random.Random) -> str:
    """``g`` in the serializer's form, edge lines shuffled and some reversed."""
    lines = [f"{j} {i}" if rng.random() < 0.5 else f"{i} {j}" for i, j, _ in g.edges]
    signs = ["+" if s > 0 else "-" for _, _, s in g.edges]
    body = [f"{pair} {sign}\n" for pair, sign in zip(lines, signs)]
    rng.shuffle(body)
    return f"n {g.n}\n" + "".join(body)


class TestSwitchingEquivalentMatchesReference:
    """``switching_equivalent`` against the set-based search it replaced,
    frozen as ``oracle_switching_equivalent``: the same verdict and witness,
    on graphs built directly (edge arrays sorted by the constructor) and on graphs
    parsed from the serializer's form (edge arrays stored by the parser)."""

    def _check(self, a: SignedGraph, b: SignedGraph, rng: random.Random) -> None:
        want = oracle_switching_equivalent(a, b)
        assert switching_equivalent(a, b) == want
        pa = parse_signed_graph(_shuffled_text(a, rng))
        pb = parse_signed_graph(_shuffled_text(b, rng))
        assert "edges" not in pa.__dict__ and "edges" not in pb.__dict__
        assert switching_equivalent(pa, pb) == want

    def test_seeded_corpus(self):
        rng = random.Random(2_024)
        graphs = random_graphs(120, base_seed=6_100, n_min=1, n_max=14, prob_lo=0.05)
        # Isolated vertices, a disconnected graph, and no edges at all.
        graphs += [K3P_K3N, EMPTY3, SignedGraph.from_edges(9, [(2, 5, -1), (5, 7, 1), (2, 7, -1),
                                                               (3, 8, 1)])]
        verdicts = set()
        for g in graphs:
            for h in _partners(g, rng):
                self._check(g, h, rng)
                self._check(h, g, rng)
                verdicts.add(oracle_switching_equivalent(g, h)[0])
        assert verdicts == {True, False}

    @given(graphs_with_switchings(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_random_pairs(self, gt, rng):
        g, theta = gt
        for h in (switch(g, theta), *_partners(g, rng)):
            self._check(g, h, rng)

    def test_n2000(self):
        rng = random.Random(2_000)
        pairs = set()
        while len(pairs) < 6_000:
            a, b = sorted(rng.sample(range(1, 2_001), 2))
            pairs.add((a, b))
        g = SignedGraph(2_000, frozenset((a, b, rng.choice((1, -1))) for a, b in pairs))
        partners = _partners(g, rng)
        for h in partners:
            self._check(g, h, rng)
        assert [oracle_switching_equivalent(g, h)[0] for h in partners] == [True, False, False]


def _path(order):
    return list(zip(order, order[1:]))


def _binary_tree(n, rng):
    """Node k > 1 hangs below a random earlier node with a free child slot."""
    free, pairs = [1, 1], []
    for k in range(2, n + 1):
        parent = free.pop(rng.randrange(len(free)))
        pairs.append((parent, k))
        free += [k, k]
    return pairs


def _small_components():
    """Triangles, 4-cycles, 3-vertex paths and single edges on vertices
    1..840, a triangle first."""
    pairs, v = [], 1
    for size, closed in [(3, True), (4, True), (3, False), (2, False)] * 70:
        ring = list(range(v, v + size))
        pairs += _path(ring) + ([(ring[-1], ring[0])] if closed else [])
        v += size
    return pairs


def _grid(side):
    cells = [[r * side + c + 1 for c in range(side)] for r in range(side)]
    return [pair for line in cells + list(zip(*cells)) for pair in _path(line)]


# Shapes for the component search, (n, vertex pairs, how many of the
# vertex numbers 1, 2, ... to shuffle): long paths and deep trees need the
# most hook-and-shortcut rounds, and a star hooks every node onto its
# centre's.  In the cyclic shapes the first pair lies on a cycle.
_SHAPES = {
    "path, sorted": lambda rng: (20_000, _path(range(1, 20_001)), 0),
    "path, zigzag": lambda rng: (20_000, _path([v for k in range(1, 10_001)
                                                for v in (k, 20_001 - k)]), 0),
    "path, random": lambda rng: (20_000, _path(range(1, 20_001)), 20_000),
    "cycle": lambda rng: (20_000, _path(range(1, 20_001)) + [(20_000, 1)], 20_000),
    "star, largest centre": lambda rng: (20_000, [(v, 20_000) for v in range(1, 20_000)], 19_999),
    "binary tree": lambda rng: (20_000, _binary_tree(20_000, rng), 20_000),
    "grid": lambda rng: (19_881, _grid(141), 19_881),
    "isolated and small": lambda rng: (20_000, _small_components(), 20_000),
    "edgeless": lambda rng: (20_000, [], 20_000),
    "one vertex": lambda rng: (1, [], 1),
}
_CYCLIC = ("cycle", "grid", "isolated and small")


def _shape_and_partners(shape):
    """The graph of ``_SHAPES[shape]``, its vertex numbers shuffled and its
    signs drawn, with a switching of it and, if it has an edge, the same
    switching with its first edge flipped."""
    rng = random.Random(shape)
    n, pairs, shuffled = _SHAPES[shape](rng)
    names = rng.sample(range(1, shuffled + 1), shuffled) + list(range(shuffled + 1, n + 1))
    edges = [(names[a - 1], names[b - 1], rng.choice((1, -1))) for a, b in pairs]
    g = SignedGraph.from_edges(n, edges)
    h = switch(g, tuple(rng.choice((1, -1)) for _ in range(n)))
    partners = [h]
    if edges:
        i, j = sorted(edges[0][:2])
        s = 1 if (i, j, 1) in h.edges else -1
        partners.append(SignedGraph(n, (h.edges - {(i, j, s)}) | {(i, j, -s)}))
    return g, partners


class TestSwitchingEquivalentShapes:
    """``switching_equivalent`` against ``oracle_switching_equivalent`` on
    shapes with long paths, deep trees, high degree and many components,
    up to n = 20 000: a switching of each graph, and the same switching
    with its first edge flipped, which breaks equivalence in the cyclic
    shapes.  ``balance_info`` of each graph is checked against
    ``oracle_balance_info`` too (:func:`expected_balance_info`)."""

    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_matches_oracle(self, shape):
        g, partners = _shape_and_partners(shape)
        for x in (g, *partners):
            assert balance_info(x) == expected_balance_info(x)
        verdicts = []
        for b in partners:
            for x, y in ((g, b), (b, g)):
                want = oracle_switching_equivalent(x, y)
                assert switching_equivalent(x, y) == want
                verdicts.append(want[0])
        assert verdicts == [True, True] + [shape not in _CYCLIC] * 2 * bool(g.m)


class TestCoverLabelsCertificate:
    """``_parity_labels`` stops on a certificate: every label is 2 * root +
    parity with the root never above its vertex and labelled 2 * root itself,
    both ends of every edge share a root, and an edge is reported as
    joining the cover's two sheets iff its ends' parities and its sign
    disagree.  Checked on each shape's own signs and on its product
    signature with a switching (and with the flipped partner), as
    ``switching_equivalent`` reads it."""

    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_labels_are_roots_shared_along_every_edge(self, shape):
        g, partners = _shape_and_partners(shape)
        i, j, sign = edge_arrays(g)
        signatures = [sign < 0] + [sign != edge_arrays(h)[2] for h in partners]
        for negative in signatures:
            label, joins = _parity_labels(g.n, i - 1, j - 1, negative)
            assert label.dtype == np.int32 and label.shape == (g.n,)
            root = label >> 1
            assert np.array_equal(label[root], 2 * root)
            assert (root <= np.arange(g.n)).all()
            assert np.array_equal(root[i - 1], root[j - 1])
            assert joins.shape == (g.m,)
            assert np.array_equal(joins, (label[i - 1] ^ label[j - 1] ^ negative) & 1)


class CountingNumpy:
    """numpy, with the calls of ``np.maximum`` counted: ``_parity_labels``
    makes one per hook round.  A call past ``limit`` fails at once, where a
    labelling that needs O(n) rounds would run for minutes."""

    def __init__(self, limit):
        self.rounds = 0
        self.limit = limit

    def maximum(self, *args, **kwargs):
        self.rounds += 1
        assert self.rounds <= self.limit, f"more than {self.limit} hook rounds"
        return np.maximum(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)


def _oracle_shapes(n, rng):
    """0-based vertex pairs of shapes on n vertices, their vertex numbers
    shuffled: a path, a cycle, a grid, a random recursive tree, and a star
    whose centre is the largest vertex, its leaves in ascending order."""
    order = rng.sample(range(n), n)
    side = math.isqrt(n)
    cells = [order[r * side:(r + 1) * side] for r in range(side)]
    return {
        "path": _path(order),
        "cycle": _path(order) + [(order[-1], order[0])],
        "grid": [pair for line in cells + [list(c) for c in zip(*cells)] for pair in _path(line)],
        "random tree": [(order[rng.randrange(k)], order[k]) for k in range(1, n)],
        "star, ascending leaves": [(v, n - 1) for v in range(n - 1)],
    }


class TestCoverReadingMatchesDoubleCover:
    """``_cover_reading`` on the packed labels against the double-cover
    labelling it replaced, frozen as ``oracle_cover_reading``: the same
    root, balance and certificate arrays, dtypes included, on random
    graphs and on shuffled shapes at n = 10^4, each with random signs and
    with a switching of all-positive signs, which is balanced.  The hook
    rounds stay within the README's bound of 9 at n = 10^4; a hook where
    the last writer wins needs O(n) rounds on the star."""

    def _check(self, count, i, j, negative):
        got = _cover_reading(count, i, j, negative)
        want = oracle_cover_reading(count, i, j, negative)
        for x, y in zip(got, want, strict=True):
            assert x.dtype == y.dtype and np.array_equal(x, y)

    def test_random_graphs(self):
        for g in random_graphs(200, base_seed=8_800, n_min=1, n_max=20, prob_lo=0.05):
            i, j, sign = edge_arrays(g)
            self._check(g.n, i - 1, j - 1, sign < 0)
            # The edges in reverse, each with its ends swapped.
            self._check(g.n, j[::-1] - 1, i[::-1] - 1, sign[::-1] < 0)

    @pytest.mark.parametrize("shape", ["path", "cycle", "grid", "random tree",
                                       "star, ascending leaves"])
    def test_shapes(self, shape, monkeypatch):
        n = 10_000
        rng = random.Random(shape)
        pairs = np.array(_oracle_shapes(n, rng)[shape], dtype=np.int64)
        i, j = pairs[:, 0].copy(), pairs[:, 1].copy()
        theta = np.array([rng.random() < 0.5 for _ in range(n)])
        for negative in (np.array([rng.random() < 0.5 for _ in range(len(i))]),
                         theta[i] != theta[j]):
            counting = CountingNumpy(limit=9)
            monkeypatch.setattr(balance, "np", counting)
            got = _cover_reading(n, i, j, negative)
            monkeypatch.setattr(balance, "np", np)
            assert counting.rounds >= 1
            want = oracle_cover_reading(n, i, j, negative)
            for x, y in zip(got, want, strict=True):
                assert x.dtype == y.dtype and np.array_equal(x, y)


def expected_balance_info(g: SignedGraph) -> BalanceInfo:
    """``oracle_balance_info(g)`` with its certificate set to +1 on every
    vertex of an unbalanced component, where the search's values carry no
    guarantee and ``balance_info`` defines them as +1."""
    want = oracle_balance_info(g)
    certificate = tuple(theta if want.component_balanced[c] else 1
                        for c, theta in zip(want.component_labels, want.certificate))
    return dataclasses.replace(want, certificate=certificate)


class TestBalanceInfoMatchesReference:
    """``balance_info`` against the breadth-first search it used before it
    read the double cover, frozen as ``oracle_balance_info``: all five
    fields exactly equal, the certificate +1 on unbalanced components
    (:func:`expected_balance_info`), on graphs built directly, on graphs
    parsed from shuffled serializer text (edge arrays from the parser's
    sort) and on fresh copies of those (edge arrays sorted by the constructor)."""

    def _check(self, g: SignedGraph, rng: random.Random) -> BalanceInfo:
        want = expected_balance_info(g)
        assert balance_info(g) == want
        parsed = parse_signed_graph(_shuffled_text(g, rng))
        assert "edges" not in parsed.__dict__
        assert balance_info(parsed) == want
        twin = SignedGraph(parsed.n, frozenset(parsed.edges))
        for built, sorted_by_parser in zip(edge_arrays(twin), edge_arrays(parsed), strict=True):
            assert np.array_equal(built, sorted_by_parser)
        assert balance_info(twin) == want
        return want

    def test_seeded_corpus(self):
        rng = random.Random(4_242)
        graphs = random_graphs(300, base_seed=9_100, n_min=1, n_max=16, prob_lo=0.05)
        graphs += [K1, EMPTY3, K3N, K3P_K3N,
                   SignedGraph.from_edges(9, [(2, 5, -1), (5, 7, -1), (2, 7, -1), (3, 8, 1),
                                              (6, 9, 1), (1, 6, -1)])]
        infos = [self._check(g, rng) for g in graphs]
        assert any(info.component_count > 1 for info in infos)
        assert any(info.balanced_count == 0 for info in infos)
        assert any(0 < info.balanced_count < info.component_count for info in infos)

    @given(signed_graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_random_graphs(self, g, rng):
        self._check(g, rng)


class TestInducedSubgraphs:
    """The one-sign subgraphs and their Laplacians, which LB-INTERLACE reads
    off L(g) without building either subgraph."""

    def test_negative_part_of_mixed_triangle(self):
        got = one_sign_subgraph(K3M, -1)
        assert got == SignedGraph(3, frozenset({(1, 3, -1)}))
        assert laplacian_parts(laplacian(K3M))[1].tolist() == laplacian(got).tolist()

    def test_positive_part_of_all_negative(self):
        got = one_sign_subgraph(K3N, 1)
        assert got.n == 3 and got.m == 0
        assert not laplacian_parts(laplacian(K3N))[0].any()

    def test_positive_part_of_all_positive(self):
        assert one_sign_subgraph(K3P, 1) == K3P
        pos, neg = laplacian_parts(laplacian(K3P))
        assert np.array_equal(pos, laplacian(K3P)) and not neg.any()

    @given(signed_graphs())
    @settings(max_examples=100)
    def test_parts_partition_edges(self, g):
        pos = one_sign_subgraph(g, 1)
        neg = one_sign_subgraph(g, -1)
        assert pos.edges | neg.edges == g.edges
        assert not pos.edges & neg.edges
        lap_pos, lap_neg = laplacian_parts(laplacian(g))
        assert np.array_equal(lap_pos, laplacian(pos))
        assert np.array_equal(lap_neg, laplacian(neg))


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
