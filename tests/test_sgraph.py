import gc
import platform

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from common import EMPTY3, K2N, K3M, K3N, P3P, oracle_graph_error, oracle_parse, oracle_triangles
from sglap import (
    GeneratorConfig,
    GraphFormatError,
    SignedGraph,
    degree_profile,
    generate,
    laplacian,
    parse_signed_graph,
    serialize_signed_graph,
    trace_moment,
    triangle_stats,
)


@st.composite
def signed_graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    edges = []
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            state = draw(st.sampled_from((0, 0, 1, -1)))
            if state:
                edges.append((i, j, state))
    return SignedGraph.from_edges(n, edges)


# Parser fuzz alphabet.  A text is a header choice and edge lines on distinct
# pairs of vertices 1-7, each written in either orientation, with at most one
# noisy line inserted: a repeated pair, a line of near-miss tokens, or token
# soup.  Near-misses are header and sign tokens in the wrong place, comments,
# integers int() accepts beyond plain ASCII (non-ASCII digits, underscores,
# 20 digits), and every separator that str.split or str.splitlines treats
# specially.
_PAIRS = tuple((str(i), str(j)) for i in range(1, 8) for j in range(i + 1, 8))
_SIGNS = ("+", "-", "+1", "-1")
_NOISY_IDS = ("1", "2", "3", "0", "-1", "+2", "-0", "1_0", "\u0663", "\uff12",
              "12345678901234567890", "x", "n", "#", "")
_NOISY_SIGNS = _SIGNS + ("0", "x", "#", "+ -", "")
_SPACES = (" ", "  ", "\t", "\xa0", "\u3000")
_NOISY_SPACES = _SPACES + ("\x0b", "\x0c", "\x1c")
_BREAKS = ("\n", "\n", "\r\n", "\r", " # c\n", "\x1d", "\x1e", "\x85", "\u2028")
_HEADERS = ("", "", "", "n 7\n", "n 9\r\n", "# c\nn 7\n", "\n\tn 8\n", "n 5\n", "n 0\n",
            "n\n", "n 7 7\n", "n x\n", "n \u0667\n", "n 12345678901234567890\n")


def _sampled(*alphabets):
    return st.tuples(*(st.sampled_from(a) for a in alphabets))


def _edge_line(spaces, i, j, sign, brk):
    return f"{spaces[0]}{i}{spaces[1]}{j}{spaces[2]}{sign}{brk}"


@st.composite
def edge_list_texts(draw):
    edges = draw(st.lists(st.tuples(_sampled(_PAIRS, _SIGNS, _BREAKS), st.booleans(),
                                    _sampled(_SPACES, _SPACES, _SPACES)),
                          unique_by=lambda e: e[0][0], max_size=8))
    lines = []
    for (pair, sign, brk), flip, spaces in edges:
        i, j = reversed(pair) if flip else pair
        lines.append(_edge_line(spaces, i, j, sign, brk))
    noise = draw(st.sampled_from((None, None, "repeat", "tokens", "soup")))
    if noise == "repeat" and edges:
        (i, j), _, _ = draw(st.sampled_from(edges))[0]
        lines.append(f"{j} {i} -\n")
    elif noise == "tokens":
        i, j, sign, brk = draw(_sampled(_NOISY_IDS, _NOISY_IDS, _NOISY_SIGNS, _BREAKS))
        spaces = draw(_sampled(_NOISY_SPACES, _NOISY_SPACES, _NOISY_SPACES))
        lines.insert(draw(st.integers(0, len(lines))), _edge_line(spaces, i, j, sign, brk))
    elif noise == "soup":
        soup = draw(st.lists(st.sampled_from(_NOISY_IDS + _NOISY_SPACES + _BREAKS), max_size=12))
        lines.insert(draw(st.integers(0, len(lines))), "".join(soup))
    return draw(st.sampled_from(_HEADERS)) + "".join(lines)


# Constructor inputs: ordered edges on vertices 1-6, where the same pair with
# both signs is common, plus at most one unordered, out-of-range or bad-sign
# triple.
_ordered_edges = st.builds(lambda pair, sign: (*pair, sign),
                           st.sampled_from([(i, j) for i in range(1, 7) for j in range(i + 1, 7)]),
                           st.sampled_from((1, -1)))
_any_edges = st.tuples(st.integers(0, 7), st.integers(0, 7),
                       st.sampled_from((1, -1, 0, 2)))


class TestSignedGraph:
    def test_from_edges_normalizes_order(self):
        g = SignedGraph.from_edges(3, [(3, 1, -1)])
        assert g.edges == frozenset({(1, 3, -1)})

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            SignedGraph.from_edges(2, [(1, 1, 1)])

    def test_rejects_duplicate_pair(self):
        with pytest.raises(ValueError, match="duplicate"):
            SignedGraph.from_edges(3, [(1, 2, 1), (2, 1, -1)])
        with pytest.raises(ValueError, match="duplicate edge between 1 and 2"):
            SignedGraph(3, frozenset({(1, 2, 1), (1, 2, -1)}))

    @given(st.sampled_from((6, 6, 6, 5, 0)), st.frozensets(_ordered_edges, max_size=12),
           st.frozensets(_any_edges, max_size=1))
    @settings(max_examples=300)
    def test_constructor_errors_match_oracle(self, n, edges, noise):
        edges |= noise
        want = oracle_graph_error(n, edges)
        if want is None:
            assert SignedGraph(n, edges).edges == edges
        else:
            with pytest.raises(ValueError) as got:
                SignedGraph(n, edges)
            assert str(got.value) == want

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            SignedGraph.from_edges(2, [(1, 3, 1)])

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError, match="sign"):
            SignedGraph.from_edges(2, [(1, 2, 2)])

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            SignedGraph.from_edges(0, [])

    def test_hashable_and_equal(self):
        g1 = SignedGraph.from_edges(3, [(1, 2, 1), (2, 3, -1)])
        g2 = SignedGraph.from_edges(3, [(3, 2, -1), (1, 2, 1)])
        assert g1 == g2
        assert hash(g1) == hash(g2)


class TestParser:
    def test_single_edge(self):
        g = parse_signed_graph("n 2\n1 2 +")
        assert g.n == 2
        assert g.edges == frozenset({(1, 2, 1)})

    def test_mixed_triangle(self):
        g = parse_signed_graph("n 3\n1 2 +\n2 3 +\n1 3 -")
        assert g == K3M

    def test_duplicate_edge_reports_line(self):
        with pytest.raises(GraphFormatError, match="line 3.*duplicate"):
            parse_signed_graph("n 3\n1 2 +\n1 2 -")

    def test_numeric_sign_tokens(self):
        g = parse_signed_graph("1 2 +1\n2 3 -1")
        assert g == SignedGraph.from_edges(3, [(1, 2, 1), (2, 3, -1)])

    def test_vertex_count_from_max_index(self):
        g = parse_signed_graph("2 7 -")
        assert g.n == 7

    def test_comments_and_blank_lines(self):
        text = "# a triangle\nn 3\n\n1 2 +  # first\n2 3 +\n1 3 -\n"
        assert parse_signed_graph(text) == K3M

    def test_crlf(self):
        assert parse_signed_graph("n 2\r\n1 2 -\r\n") == K2N

    def test_missing_sign_token(self):
        with pytest.raises(GraphFormatError, match="line 2.*missing sign"):
            parse_signed_graph("n 2\n1 2")

    def test_self_loop_error(self):
        with pytest.raises(GraphFormatError, match="line 1.*self-loop"):
            parse_signed_graph("2 2 +")

    def test_index_out_of_range(self):
        with pytest.raises(GraphFormatError, match="line 2.*exceeds"):
            parse_signed_graph("n 2\n1 3 +")

    def test_index_below_one(self):
        with pytest.raises(GraphFormatError, match="start at 1"):
            parse_signed_graph("0 1 +")

    def test_malformed_line(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_signed_graph("1 2 + extra")

    def test_bad_sign_token(self):
        with pytest.raises(GraphFormatError, match="invalid sign"):
            parse_signed_graph("1 2 x")

    def test_empty_input(self):
        with pytest.raises(GraphFormatError, match="empty input"):
            parse_signed_graph("# nothing here\n")

    def test_header_only(self):
        g = parse_signed_graph("n 5\n")
        assert g.n == 5 and g.m == 0

    def test_vertex_limit(self):
        assert parse_signed_graph("n 1000000").n == 1_000_000
        assert parse_signed_graph("1 1000000 +").n == 1_000_000
        with pytest.raises(GraphFormatError, match="line 1: vertex count 1000001 exceeds the limit"):
            parse_signed_graph("n 1000001")
        with pytest.raises(GraphFormatError, match="line 2: vertex index 1000001 exceeds the limit"):
            parse_signed_graph("1 2 +\n1000001 3 -")
        with pytest.raises(GraphFormatError, match="vertex count 12345678901234567890 exceeds"):
            parse_signed_graph("n 12345678901234567890\n1 2 +")

    @given(st.one_of(edge_list_texts(), st.text()))
    @settings(max_examples=400, deadline=None)
    def test_matches_oracle_parser(self, text):
        try:
            want = oracle_parse(text)
        except GraphFormatError as exc:
            with pytest.raises(GraphFormatError) as got:
                parse_signed_graph(text)
            assert (str(got.value), got.value.line_no) == (str(exc), exc.line_no)
        else:
            got = parse_signed_graph(text)
            assert got == want
            assert all(type(e) is tuple for e in got.edges)


    @pytest.mark.skipif(platform.python_implementation() != "CPython",
                        reason="tuple untracking is a CPython collector behaviour")
    def test_parsed_edges_leave_the_collector(self):
        # CPython's collector stops tracking an exact tuple of ints the first
        # time it examines it, so a large edge set costs later collections
        # nothing; it never does so for a tuple subclass.
        lines = ["n 5000"]
        for v in range(1, 5001):
            for k in range(1, 6):
                if v + k <= 5000:
                    lines.append(f"{v} {v + k} {'-' if (v * k) % 3 == 0 else '+'}")
        g = parse_signed_graph("\n".join(lines))
        gc.collect()
        assert g.m == 24_985
        assert not any(gc.is_tracked(e) for e in g.edges)


class TestSerializer:
    def test_single_negative_edge(self):
        assert serialize_signed_graph(K2N) == "n 2\n1 2 -\n"

    def test_empty_graph(self):
        assert serialize_signed_graph(EMPTY3) == "n 3\n"

    def test_round_trip_mixed(self):
        assert parse_signed_graph(serialize_signed_graph(K3M)) == K3M

    @given(signed_graphs())
    def test_round_trip_random(self, g):
        assert parse_signed_graph(serialize_signed_graph(g)) == g


class TestDegreeProfile:
    def test_all_negative_triangle(self):
        prof = degree_profile(K3N)
        assert prof.d == (2, 2, 2)
        assert prof.d_neg == (2, 2, 2)
        assert prof.d_net == (-2, -2, -2)
        assert (prof.s1, prof.s2, prof.s3) == (6, 12, 24)
        assert prof.avg2 == (2.0, 2.0, 2.0)

    def test_mixed_triangle(self):
        prof = degree_profile(K3M)
        assert prof.d_neg == (1, 0, 1)
        assert prof.d_net == (0, 2, 0)

    def test_path(self):
        prof = degree_profile(P3P)
        assert prof.d == (1, 2, 1)
        assert prof.avg2 == (2.0, 1.0, 2.0)
        assert prof.edge_deg_min == 1
        assert prof.edge_deg_max == 1

    def test_isolated_vertex_markers(self):
        prof = degree_profile(EMPTY3)
        assert prof.avg2 == (None, None, None)
        assert prof.edge_deg_min is None
        assert prof.edge_deg_max is None
        assert prof.max_deg == 0

    def test_invariants_on_seeded_corpus(self):
        from common import random_graphs

        for g in random_graphs(1000, base_seed=400, n_max=10, n_min=1, prob_lo=0.1):
            prof = degree_profile(g)
            assert prof.s1 == 2 * g.m
            assert all(d == p + q for d, p, q in zip(prof.d, prof.d_pos, prof.d_neg))
            assert prof.s2 == sum(x * x for x in prof.d)
            assert prof.s3 == sum(x ** 3 for x in prof.d)

    @given(signed_graphs())
    @settings(max_examples=200)
    def test_invariants(self, g):
        prof = degree_profile(g)
        m_pos = sum(1 for _, _, s in g.edges if s > 0)
        m_neg = g.m - m_pos
        assert prof.s1 == 2 * g.m
        assert all(d == p + q for d, p, q in zip(prof.d, prof.d_pos, prof.d_neg))
        assert all(net == p - q for net, p, q in zip(prof.d_net, prof.d_pos, prof.d_neg))
        assert sum(prof.d_net) == 2 * (m_pos - m_neg)
        assert prof.s2 == sum(x * x for x in prof.d)
        assert prof.s3 == sum(x ** 3 for x in prof.d)
        # nds_j is the neighbor degree sum exactly, and d_j * avg2_j recovers
        # it for non-isolated j
        for v in range(1, g.n + 1):
            want = sum(prof.d[(j if i == v else i) - 1] for i, j, _ in g.edges if v in (i, j))
            assert prof.nds[v - 1] == want
            if prof.d[v - 1] == 0:
                assert prof.avg2[v - 1] is None
            else:
                assert prof.d[v - 1] * prof.avg2[v - 1] == pytest.approx(want, abs=1e-9)
        for i, j, _ in g.edges:
            de = prof.d[i - 1] + prof.d[j - 1] - 2
            assert prof.edge_deg_min <= de <= prof.edge_deg_max


class TestTriangleStats:
    @pytest.mark.parametrize(
        "g,t,t_net",
        [(K3N, 1, -1), (K3M, 1, -1), (P3P, 0, 0)],
    )
    def test_examples(self, g, t, t_net):
        stats = triangle_stats(g)
        assert stats.t == t
        assert stats.t_net == t_net

    def test_positive_triangle(self):
        from common import K3P

        stats = triangle_stats(K3P)
        assert (stats.t, stats.t_pos, stats.t_neg, stats.t_net) == (1, 1, 0, 1)

    @given(signed_graphs())
    @settings(max_examples=200)
    def test_matches_brute_force(self, g):
        stats = triangle_stats(g)
        t, t_pos, t_neg = oracle_triangles(g)
        assert (stats.t, stats.t_pos, stats.t_neg) == (t, t_pos, t_neg)
        assert stats.t_net == t_pos - t_neg
        assert abs(stats.t_net) <= stats.t

    # The Hypothesis graphs stop at n = 8; these twelve reach n = 150, where
    # each neighbor bitmask spans several machine words, and cover each of
    # the six (density, neg_prob) mixes twice.
    @pytest.mark.parametrize(
        "n,edge_prob,neg_prob",
        [(9 + 141 * k // 11, 0.8 if k % 2 == 0 else 0.08, (0.0, 0.5, 1.0)[k % 3])
         for k in range(12)],
    )
    def test_matches_brute_force_beyond_one_word(self, n, edge_prob, neg_prob):
        g = generate(GeneratorConfig(n=n, edge_prob=edge_prob, neg_prob=neg_prob, seed=7 + n))
        stats = triangle_stats(g)
        assert (stats.t, stats.t_pos, stats.t_neg) == oracle_triangles(g)
        assert stats.t > 0

    def test_trace_identity_dense_n200(self):
        # tr(L^3) = s3 + 3 s2 - 6 t_net, with t_net from the bitmasks and the
        # trace from an exact integer matrix product.
        g = generate(GeneratorConfig(n=200, edge_prob=0.9, neg_prob=0.5, seed=200))
        prof = degree_profile(g)
        stats = triangle_stats(g)
        assert 6 * stats.t_net == prof.s3 + 3 * prof.s2 - trace_moment(laplacian(g), 3)
        assert stats.t > 900_000
