import gc
import platform
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from common import (
    EMPTY3,
    K2N,
    K3M,
    K3N,
    P3P,
    oracle_graph_error,
    oracle_is_serialized,
    oracle_parse,
    oracle_triangles,
)
from sglap import (
    GeneratorConfig,
    GraphFormatError,
    SignedGraph,
    degree_profile,
    eigenvalues,
    evaluate_all,
    generate,
    laplacian,
    parse_signed_graph,
    report,
    serialize_signed_graph,
    sign_all,
    switch,
    switching_equivalent,
    trace_moment,
    triangle_stats,
)
from sglap import cli, sgraph
from sglap.sgraph import (MAX_VERTICES, _parse_lines, _parse_padded, _serialized_rows,
                          edge_arrays)


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
# both signs is common, plus at most one unordered, out-of-range, bad-sign or
# not-int triple.  A bool, a numpy integer or a float equal to an int
# compares and hashes like it, so only its type can reject it.
_ordered_edges = st.builds(lambda pair, sign: (*pair, sign),
                           st.sampled_from([(i, j) for i in range(1, 7) for j in range(i + 1, 7)]),
                           st.sampled_from((1, -1)))
_NOT_INT_EDGES = ((True, 2, 1), (1, 2, True), (np.int64(1), 2, 1), (1, np.int64(2), -1),
                  (1, 3, np.int64(-1)), (1, 4, 1.0), (2.0, 5, -1))
_any_edges = st.one_of(st.tuples(st.integers(0, 7), st.integers(0, 7),
                                 st.sampled_from((1, -1, 0, 2))),
                       st.sampled_from(_NOT_INT_EDGES))


# Texts in the exact form serialize_signed_graph writes, edge lines shuffled
# and each written either way round, with at most one planted defect.  A
# defect either breaks the format's rules, which only the line reader may
# report, or leaves the form (an 8-digit number), so the line reader parses
# the text; leading zeros keep the form and the graph.
_MAX_N = 1_000_000
_DEFECTS = (None, None, None, "leading zeros", "self-loop", "duplicate", "index 0",
            "index above n", "header 0", "header above limit", "8 digits", "empty body")


@st.composite
def serialized_texts(draw):
    """(text, array_form): ``array_form`` says the text is valid and in the
    serializer's form, so the parser must read it through the arrays."""
    n = draw(st.sampled_from((1, 2, 3, 5, 9, 12, 40, 9_999, _MAX_N)))
    window = draw(st.integers(1, max(1, n - 11)))  # pairs within 12 vertices
    verts = range(window, min(n, window + 11) + 1)
    pairs = [(i, j) for i in verts for j in verts if i < j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14)) if pairs else []
    lines = [[i, j, draw(st.sampled_from("+-"))] for i, j in chosen]
    defect = draw(st.sampled_from(_DEFECTS))
    if defect == "duplicate" and not lines:
        defect = None
    header = str(n)
    if defect == "self-loop":
        v = draw(st.sampled_from(verts))
        lines.append([v, v, "+"])
    elif defect == "duplicate":
        i, j, sign = draw(st.sampled_from(lines))
        lines.append([i, j, draw(st.sampled_from("+-"))])
    elif defect == "index 0":
        lines.append([0, draw(st.sampled_from(verts)), "-"])
    elif defect == "index above n":
        lines.append([draw(st.sampled_from(verts)), draw(st.sampled_from((n + 1, 9_999_999))), "+"])
    elif defect == "header 0":
        header = draw(st.sampled_from(("0", "000")))
    elif defect == "header above limit":
        header = draw(st.sampled_from((str(_MAX_N + 1), "9999999")))
    elif defect == "empty body":
        lines = []
    for line in lines:
        if draw(st.booleans()):
            line[0], line[1] = line[1], line[0]
    order = draw(st.permutations(range(len(lines))))
    body = [lines[k] for k in order]
    texts = [[str(i), str(j), sign] for i, j, sign in body]
    if defect in ("leading zeros", "8 digits") and texts:
        row, col = draw(st.integers(0, len(texts) - 1)), draw(st.integers(0, 1))
        number = texts[row][col]
        width = 8 if defect == "8 digits" else draw(st.integers(len(number), 7))
        texts[row][col] = number.zfill(width) if width > len(number) else "0" + number
    elif defect in ("leading zeros", "8 digits"):
        header = header.zfill(8 if defect == "8 digits" else 7)
    text = f"n {header}\n" + "".join(f"{i} {j} {sign}\n" for i, j, sign in texts)
    array_form = defect in (None, "leading zeros", "empty body") and all(
        len(x) <= 7 for row in texts for x in row) and len(header) <= 7
    return text, array_form


# Edge arrays for the array-form constructor: rows sorted by (i, j) on
# vertices 1..n, with at most one planted defect.  The first group also
# breaks the tuple constructor; a dtype or sort-order defect keeps the tuple
# twin valid, so only the arrays' own checks can reject it.
_TUPLE_DEFECTS = ("i = j", "i > j", "index 0", "j > n", "sign 0", "sign 2",
                  "repeated pair", "n True", "n int64")
_ARRAY_DEFECTS = ("repeated edge", "unsorted", "float", "bool")


@st.composite
def edge_array_cases(draw):
    """(n, (i, j, sign), array_only): ``array_only`` says a defect only the
    array form can see was planted."""
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14)) if pairs else []
    rows = sorted([i, j, draw(st.sampled_from((1, -1)))] for i, j in chosen)
    defect = draw(st.sampled_from((None, None, None) + _TUPLE_DEFECTS + _ARRAY_DEFECTS))
    if (defect in ("sign 0", "sign 2", "repeated pair", "repeated edge") and not rows
            or defect == "i > j" and n < 2 or defect == "unsorted" and len(rows) < 2):
        defect = None
    vertex = st.integers(1, n)
    if defect == "i = j":
        v = draw(vertex)
        rows.append([v, v, 1])
    elif defect == "i > j":
        i, j = draw(st.sampled_from(pairs))
        rows.append([j, i, -1])
    elif defect == "index 0":
        rows.append([0, draw(vertex), 1])
    elif defect == "j > n":
        rows.append([draw(vertex), n + draw(st.integers(1, 3)), -1])
    elif defect in ("sign 0", "sign 2"):
        draw(st.sampled_from(rows))[2] = int(defect[-1])
    elif defect in ("repeated pair", "repeated edge"):
        i, j, sign = draw(st.sampled_from(rows))
        rows.append([i, j, -sign if defect == "repeated pair" else sign])
    rows.sort()
    if defect == "unsorted":
        a, b = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2, unique=True))
        rows[a], rows[b] = rows[b], rows[a]
    block = np.array(rows, dtype=np.int64).reshape(-1, 3)
    block.setflags(write=False)
    columns = [block[:, 0], block[:, 1], block[:, 2]]
    if defect in ("float", "bool"):
        k = draw(st.integers(0, 2))
        columns[k] = columns[k].astype(float if defect == "float" else bool)
    if defect in ("n True", "n int64"):
        n = True if defect == "n True" else np.int64(n)
    return n, tuple(columns), defect in _ARRAY_DEFECTS


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

    def test_rejects_edges_that_are_not_a_frozenset(self):
        # A list can repeat a triple: [(1, 2, 1), (1, 2, 1)] built a graph
        # with m = 2, degrees (2, 2, 0) and a Laplacian row [2, -1, 0], and
        # hashing it raised TypeError.
        for edges in ([(1, 2, 1), (1, 2, 1)], [(1, 2, 1)], ((1, 2, 1),), {(1, 2, 1)}):
            with pytest.raises(ValueError, match="edges must be a frozenset, got "):
                SignedGraph(3, edges)
        assert SignedGraph(3, frozenset([(1, 2, 1), (1, 2, 1)])).m == 1

    @given(st.sampled_from((6, 6, 6, 5, 0, True, np.int64(6))),
           st.frozensets(_ordered_edges, max_size=12),
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

    def test_rejects_values_that_are_not_ints(self):
        # Each is equal to, and hashes like, a valid graph's value.
        with pytest.raises(ValueError, match="vertex count must be a positive integer, got True"):
            SignedGraph(True, frozenset())
        with pytest.raises(ValueError, match="vertex count must be a positive integer"):
            SignedGraph(np.int64(2), frozenset())
        for edge in _NOT_INT_EDGES + ((np.int64(1), np.int64(2), np.int64(1)),):
            with pytest.raises(ValueError, match="has an entry that is not an int"):
                SignedGraph(6, frozenset({edge}))
            with pytest.raises(ValueError, match="has an entry that is not an int"):
                SignedGraph.from_edges(6, [edge])

    @given(edge_array_cases())
    @settings(max_examples=600, deadline=None)
    def test_array_form_accepts_what_the_tuple_form_accepts(self, case):
        n, (i, j, sign), array_only = case
        edges = frozenset(zip(i.astype(np.int64).tolist(), j.astype(np.int64).tolist(),
                              sign.astype(np.int64).tolist()))
        try:
            twin = SignedGraph(n, edges)
        except ValueError:
            twin = None
        if twin is None or array_only:
            with pytest.raises(ValueError):
                SignedGraph._from_edge_arrays(n, i, j, sign)
            return

        def lazy():
            g = SignedGraph._from_edge_arrays(n, i, j, sign)
            assert "edges" not in g.__dict__
            return g

        # Each read on a graph whose edge set is still unbuilt.
        assert lazy() == twin and twin == lazy()
        assert hash(lazy()) == hash(twin)
        assert repr(lazy()) == repr(twin)
        g = lazy()
        assert g.m == twin.m and "edges" not in g.__dict__
        assert g.edges == twin.edges and g.edges is g.edges
        assert all(type(x) is int for e in g.edges for x in e)

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

    # The line ends parse_signed_graph's docstring and README list: every
    # boundary str.splitlines knows.
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                     "\x85", "\N{LINE SEPARATOR}", "\N{PARAGRAPH SEPARATOR}"])
    def test_line_ends(self, end):
        text = end.join(("# c", "n 3", "1 2 +", "2 3 -", ""))
        assert parse_signed_graph(text) == SignedGraph(3, frozenset({(1, 2, 1), (2, 3, -1)}))

    def test_unit_separator_ends_no_line(self):
        with pytest.raises(GraphFormatError, match="line 1: expected .*, got 6 fields"):
            parse_signed_graph("1 2 +\x1f2 3 -")

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

    @given(serialized_texts())
    @settings(max_examples=400, deadline=None)
    def test_serializer_form_matches_oracle_parser(self, case):
        text, array_form = case
        try:
            want = oracle_parse(text)
        except GraphFormatError as exc:
            assert not array_form
            with pytest.raises(GraphFormatError) as got:
                parse_signed_graph(text)
            assert (str(got.value), got.value.line_no) == (str(exc), exc.line_no)
            return
        got = parse_signed_graph(text)
        # Only the array path leaves the edge set to be built on first read.
        assert ("edges" not in got.__dict__) == array_form
        assert got == want
        assert all(type(x) is int for e in got.edges for x in e)
        fresh = SignedGraph(got.n, frozenset(got.edges))
        for seeded, recomputed in zip(edge_arrays(got), edge_arrays(fresh)):
            assert seeded.dtype == recomputed.dtype == np.int64
            assert np.array_equal(seeded, recomputed)
            assert not seeded.flags.writeable

    def test_serializer_form_goes_through_the_constructor(self, monkeypatch):
        g = generate(GeneratorConfig(n=300, edge_prob=0.1, neg_prob=0.5, seed=11))
        lines = serialize_signed_graph(g).splitlines(keepends=True)
        body = lines[1:]
        random.Random(11).shuffle(body)
        text = lines[0] + "".join(" ".join(reversed(line.split()[:2])) + line[-3:]
                                  if k % 2 else line for k, line in enumerate(body))
        built = []
        check = SignedGraph.__post_init__
        monkeypatch.setattr(SignedGraph, "__post_init__",
                            lambda self: built.append(self) or check(self))
        got = parse_signed_graph(text)
        assert "edges" not in got.__dict__
        assert got == g and built == [got]
        if platform.python_implementation() == "CPython":
            gc.collect()  # exact tuples of ints leave the collector, as on the line path
            assert not any(gc.is_tracked(e) for e in got.edges)
        # A rule broken in the same form is reported by the line reader.
        with pytest.raises(GraphFormatError, match=f"line {len(lines) + 1}: duplicate edge"):
            parse_signed_graph(text + body[0])

    def test_edge_order_does_not_change_the_graph(self, monkeypatch):
        g = generate(GeneratorConfig(n=200, edge_prob=0.1, neg_prob=0.5, seed=17))
        text = serialize_signed_graph(g)
        header, *body = text.splitlines(keepends=True)
        rng = random.Random(17)
        rng.shuffle(body)
        shuffled = header + "".join("{1} {0} {2}\n".format(*line.split())
                                    if rng.random() < 0.5 else line for line in body)
        sorts = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda *a, **k: sorts.append(1) or argsort(*a, **k))
        ascending = parse_signed_graph(text)
        assert not sorts  # the serializer's order is kept as it is
        got = parse_signed_graph(shuffled)
        assert sorts and "edges" not in got.__dict__
        assert got == ascending == g
        for x, y in zip(edge_arrays(got), edge_arrays(ascending)):
            assert np.array_equal(x, y) and not x.flags.writeable

    @pytest.mark.parametrize("twin", ["2 3 -\n", "3 2 +\n"])
    def test_planted_duplicate_in_ascending_text(self, twin):
        text = "n 4\n1 2 +\n2 3 +\n" + twin + "3 4 -\n"
        with pytest.raises(GraphFormatError) as got:
            parse_signed_graph(text)
        assert str(got.value) == "line 4: duplicate edge 2 3 (first on line 3)"
        assert got.value.line_no == 4

    def test_switch_check_and_spectrum_leave_the_edge_set_unbuilt(self):
        g = generate(GeneratorConfig(n=80, edge_prob=0.1, neg_prob=0.5, seed=13))
        theta = tuple(random.Random(13).choice((1, -1)) for _ in range(g.n))
        g1, g2 = (parse_signed_graph(serialize_signed_graph(h)) for h in (g, switch(g, theta)))
        assert switching_equivalent(g1, g2).equivalent
        eigenvalues(laplacian(g1))
        assert (g1.m, g2.m) == (g.m, g.m)
        assert "edges" not in g1.__dict__ and "edges" not in g2.__dict__

    def test_bounds_and_report_leave_the_edge_set_unbuilt(self, tmp_path, monkeypatch, capsys):
        g = generate(GeneratorConfig(n=30, edge_prob=0.2, neg_prob=0.5, seed=17,
                                     require_connected=True))
        text = serialize_signed_graph(g)
        g1, g2 = parse_signed_graph(text), parse_signed_graph(text)
        assert all(r.applicable for r in evaluate_all(g1).results)
        report([g2])
        assert "edges" not in g1.__dict__ and "edges" not in g2.__dict__
        # The same through the command line, on a file in the serializer's form.
        path = tmp_path / "g.sg"
        path.write_text(text, encoding="utf-8")
        parsed = []
        parse = cli._parse_padded
        monkeypatch.setattr(cli, "_parse_padded",
                            lambda padded: parsed.append(parse(padded)) or parsed[-1])
        assert cli.main(["bounds", "--input", str(path)]) == 0
        assert cli.main(["report", "--inputs", str(path), str(path)]) == 0
        assert "| g | Σ |" in capsys.readouterr().out
        assert len(parsed) == 3 and None not in parsed  # all read by numpy
        assert not any("edges" in h.__dict__ for h in parsed)

    def test_switch_and_sign_all_build_from_the_edge_arrays(self):
        rng = random.Random(19)
        for n in (1, 2, 5, 12, 40):
            for p in (0.0, 0.3, 0.9):
                source = generate(GeneratorConfig(n=n, edge_prob=p, neg_prob=0.5, seed=n))
                edges = sorted(source.edges)
                parsed = parse_signed_graph(serialize_signed_graph(source))
                for g in (source, parsed):
                    theta = tuple(rng.choice((1, -1)) for _ in range(n))
                    derived = (
                        (switch(g, theta), [(i, j, theta[i - 1] * s * theta[j - 1])
                                            for i, j, s in edges]),
                        (sign_all(g, 1), [(i, j, 1) for i, j, _ in edges]),
                        (sign_all(g, -1), [(i, j, -1) for i, j, _ in edges]),
                    )
                    for h, want_edges in derived:
                        assert "edges" not in h.__dict__
                        twin = SignedGraph(n, frozenset(want_edges))
                        for got, want in zip(edge_arrays(h), edge_arrays(twin), strict=True):
                            assert got.dtype == np.int64 and np.array_equal(got, want)
                            with pytest.raises(ValueError):
                                got.setflags(write=True)
                        assert h == twin and hash(h) == hash(twin) and repr(h) == repr(twin)
                assert "edges" not in parsed.__dict__

    @staticmethod
    def _path_text():
        lines = ["n 5000"]
        for v in range(1, 5001):
            for k in range(1, 6):
                if v + k <= 5000:
                    lines.append(f"{v} {v + k} {'-' if (v * k) % 3 == 0 else '+'}")
        return "\n".join(lines)

    @pytest.mark.skipif(platform.python_implementation() != "CPython",
                        reason="tuple untracking is a CPython collector behaviour")
    def test_parsed_edges_leave_the_collector(self):
        # CPython's collector stops tracking an exact tuple of ints the first
        # time it examines it, so a large edge set costs later collections
        # nothing; it never does so for a tuple subclass.
        g = parse_signed_graph(self._path_text())
        gc.collect()
        assert g.m == 24_985
        assert not any(gc.is_tracked(e) for e in g.edges)

    @pytest.mark.skipif(platform.python_implementation() != "CPython",
                        reason="tuple untracking is a CPython collector behaviour")
    def test_edges_built_on_first_read_leave_the_collector(self):
        # With a final newline the text is in the serializer's form, so the
        # edge set is built when it is first read, after the parse.
        g = parse_signed_graph(self._path_text() + "\n")
        assert "edges" not in g.__dict__
        assert len(g.edges) == 24_985
        gc.collect()
        assert not any(gc.is_tracked(e) for e in g.edges)


# Texts near the serializer's form for the parser's form check, over the
# alphabet of digits, space, signs, "\n", "\r", "\x85", "é" and "٣": a
# header, then edge lines in the form with at most one part of one line
# replaced (a number by 0 or 8 digits, a separator, sign or line end by
# other characters); or a body drawn freely from the alphabet, or digits
# only.  The body may lose its final newline.
_FORM_ALPHABET = "0123456789 +-\n\r\x85é٣"
_DIGITS = "0123456789"
_NOT_A_PART = {
    "space": ("+", "-", "\n", "", "  ", "é"),
    "sign": (" ", "\n", "\r", "", "+-", "٣"),
    "end": ("\r", "0\n", "+", "", "\r\n", "\x85"),
}


@st.composite
def near_serialized_texts(draw):
    def number(width):
        return draw(st.text(_DIGITS, min_size=width, max_size=width))

    header = draw(st.one_of(
        st.builds("n {}\n".format, st.integers(1, 9_999_999)),
        st.builds("n {}\n".format, st.text(_DIGITS, min_size=1, max_size=8)),
        st.text(_FORM_ALPHABET, max_size=6)))
    kind = draw(st.sampled_from(("lines", "lines", "lines", "free", "digits")))
    if kind == "free":
        body = draw(st.text(_FORM_ALPHABET, max_size=40))
    elif kind == "digits":
        body = draw(st.text(_DIGITS, max_size=9))
    else:
        lines = [[number(draw(st.integers(1, 7))), " ", number(draw(st.integers(1, 7))), " ",
                  draw(st.sampled_from("+-")), "\n"] for _ in range(draw(st.integers(1, 5)))]
        if draw(st.booleans()):
            row, part = draw(st.sampled_from(lines)), draw(st.integers(0, 5))
            if part in (0, 2):
                row[part] = number(draw(st.sampled_from((0, 8))))
            else:
                row[part] = draw(st.sampled_from(
                    _NOT_A_PART["sign" if part == 4 else "end" if part == 5 else "space"]))
        body = "".join("".join(row) for row in lines)
    if draw(st.booleans()) and body.endswith("\n"):
        body = body[:-1]
    return header + body


def padded(text: str) -> np.ndarray:
    """``text``'s UTF-8 bytes behind eight zero bytes, as the loader holds a file."""
    return np.frombuffer(bytes(8) + text.encode("utf-8"), np.uint8)


class TestSerializedFormCheck:
    """The parser's numpy form check against the regular expressions it
    replaced, frozen as ``oracle_is_serialized``.  For each clause of the
    check, one explicit example is rejected by that clause alone, so the
    test fails if any clause is dropped."""

    @given(near_serialized_texts())
    @example("n 9\n")  # an empty body
    @example("n 9\n1 2 +\n1234567 7654321 -\n")  # 7-digit numbers
    @example("n 1234567\n0 00 -\n")
    @example("n 12345678\n1 2 +\n")  # an 8-digit header
    @example("n 9\n1 2 +\n3 4 -")  # no final newline
    @example("n 9\n1 2 +\n34")  # digits after the final newline
    @example("n 9\n123")  # digits only
    @example("n 9\n12345678 2 +\n")  # 8 digits first
    @example("n 9\n1 12345678 +\n")  # 8 digits second
    @example("n 9\n 2 +\n")  # no first number
    @example("n 9\n1  +\n")  # no second number
    @example("n 9\n1+2 +\n")  # a sign for the first space
    @example("n 9\n1 2++\n")  # a sign for the second space
    @example("n 9\n1 2  \n")  # a space for the sign
    @example("n 9\n1 2 +\r3 4 -\n")  # \r for a newline
    @example("n 9\n1 2 3+\n")  # a third number before the sign
    @example("n 9\n1 2 +\n\n")  # a blank line
    @example("n 9\n1 2 +\x85")  # a non-ASCII line end
    @example("n 9\n1 ٣ -\n")  # a non-ASCII digit
    @example("n 9\né")
    @example("n 9\n +\n")  # a line too short for two numbers
    @example("n 9\n7 +\n")  # one number
    @example("n 9\n1 2 +\n 1 2 +\n")  # a space before the first number
    @settings(max_examples=600, deadline=None)
    def test_matches_the_regular_expressions(self, text):
        form = _serialized_rows(padded(text))
        assert (form is not None) == oracle_is_serialized(text)
        if form is not None:
            n, rows = form
            assert n == int(text[2:text.index("\n")])
            # Row k: line k's two numbers and its sign, in the text's order.
            lines = text.split("\n")[1:-1]
            assert rows.dtype == np.int64 and rows.shape == (len(lines), 3)
            assert rows.tolist() == [[int(a), int(b), 1 if sign == "+" else -1]
                                     for a, b, sign in map(str.split, lines)]


    @pytest.mark.parametrize("line", [b"1 2 +\n", b"1234567 7654321 -\n"])
    def test_bytes_above_ascii_are_not_digits(self, line):
        """A file's bytes need not be UTF-8.  No byte from 0x80 up passes
        for a digit, a space, a sign or a newline, in any place of a line,
        even where its low seven bits are one (0xB0 to 0xB9 for digits)."""
        text = b"n 9\n3 4 +\n"
        assert _serialized_rows(np.frombuffer(bytes(8) + text + line, np.uint8)) is not None
        for at in range(len(line)):
            for byte in range(0x80, 0x100):
                bad = line[:at] + bytes([byte]) + line[at + 1:]
                assert _serialized_rows(np.frombuffer(bytes(8) + text + bad, np.uint8)) is None


@st.composite
def padded_serialized_texts(draw):
    """Valid texts in the serializer's form whose numbers are 1 to 7 digits
    wide, any of them with leading zeros, each pair written with either
    index first, the lines shuffled."""
    n = draw(st.one_of(st.integers(2, 40), st.integers(2, MAX_VERTICES), st.just(MAX_VERTICES)))
    ends = st.integers(1, n)
    pairs = draw(st.lists(st.tuples(ends, ends).filter(lambda p: p[0] != p[1]),
                          unique_by=lambda p: frozenset(p), max_size=30))

    def number(v):
        return str(v).zfill(draw(st.integers(len(str(v)), 7)))

    lines = [f"{number(a)} {number(b)} {draw(st.sampled_from('+-'))}\n" for a, b in pairs]
    return f"n {number(n)}\n" + "".join(draw(st.permutations(lines)))


class TestSerializedDecoder:
    """The fast path's decoder, which decodes each number once from the
    word the form check read it into, against the line reader."""

    @given(padded_serialized_texts())
    @example("n 1000000\n999999 1000000 -\n")
    @example("n 0000009\n0000001 0000009 +\n9 8 -\n")
    @example("n 9876543\n1234567 7654321 +\n")  # over the limit: both reject it
    @settings(max_examples=300, deadline=None)
    def test_matches_the_line_reader(self, text):
        assert _serialized_rows(padded(text)) is not None
        got = _parse_padded(padded(text))
        try:
            want = _parse_lines(text)
        except GraphFormatError:
            assert got is None
            return
        assert got.n == want.n
        for x, y in zip(edge_arrays(got), edge_arrays(want), strict=True):
            assert x.dtype == y.dtype == np.int64 and np.array_equal(x, y)

    def test_largest_indices_on_the_fast_path(self, monkeypatch):
        text = "n 1000000\n999999 1000000 -\n"
        want = _parse_lines(text)
        monkeypatch.setattr(sgraph, "_parse_lines", None)  # no fallback
        got = parse_signed_graph(text)
        assert "edges" not in got.__dict__  # built from the arrays
        assert got == want and got.n == 1_000_000
        for x, y in zip(edge_arrays(got), edge_arrays(want), strict=True):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("text", ["n 1234567\n0 00 -\n", "n 9999999\n"])
    def test_rejected_text_gets_the_line_readers_error(self, text):
        assert _serialized_rows(padded(text)) is not None
        with pytest.raises(GraphFormatError) as want:
            _parse_lines(text)
        with pytest.raises(GraphFormatError) as got:
            parse_signed_graph(text)
        assert (str(got.value), got.value.line_no) == (str(want.value), want.value.line_no)


# One input per GraphFormatError message, with its line number and the
# exact error text written out.
_FORMAT_ERRORS = [
    ("n 3 4\n1 2 +\n", 1, "line 1: malformed header, expected 'n <count>'"),
    ("n\n", 1, "line 1: malformed header, expected 'n <count>'"),
    ("# c\nn x\n", 2, "line 2: invalid vertex count 'x'"),
    ("n 0\n1 2 +\n", 1, "line 1: vertex count must be positive"),
    ("n -3\n", 1, "line 1: vertex count must be positive"),
    ("n 1000001\n", 1, "line 1: vertex count 1000001 exceeds the limit 1000000"),
    ("n 3\n1 2 +\n2 3\n", 3, "line 3: missing sign token"),
    ("1 2 + +\n", 1, "line 1: expected '<i> <j> <sign>', got 4 fields"),
    ("n 3\n\n 1 \n", 3, "line 3: expected '<i> <j> <sign>', got 1 fields"),
    ("n 3\n1 b +\n", 2, "line 2: vertex indices must be integers"),
    ("1.0 2 -\n", 1, "line 1: vertex indices must be integers"),
    ("n 3\n1 2 *\n", 2, "line 2: invalid sign token '*'"),
    ("1 2 ++\n", 1, "line 1: invalid sign token '++'"),
    ("n 3\n1 2 +\n3 3 -\n", 3, "line 3: self-loop at vertex 3"),
    ("2 0 +\n", 1, "line 1: vertex indices start at 1"),
    ("n 3\n2 -1 -\n", 2, "line 2: vertex indices start at 1"),
    ("n 3\n4 1 +\n", 2, "line 2: vertex index 4 exceeds declared count 3"),
    ("n 4\n1 2 +\n# c\n2 1 -\n", 4, "line 4: duplicate edge 1 2 (first on line 2)"),
    ("1 2 +\n1000001 2 -\n", 2, "line 2: vertex index 1000001 exceeds the limit 1000000"),
    ("", 1, "line 1: empty input: need a header line or at least one edge"),
    ("# c\n\n  \n", 1, "line 1: empty input: need a header line or at least one edge"),
    # Only the first content line can be the header; an "n" line after it
    # is an edge line.
    ("1 2 +\nn 3\n", 2, "line 2: missing sign token"),
    ("1 2 +\nn 3 +\n", 2, "line 2: vertex indices must be integers"),
    ("n 3\nn 3\n", 2, "line 2: missing sign token"),
    # \r, \x85 and U+2028 each end a line.
    ("n 3\r1 2 +\r2 1 -\r", 3, "line 3: duplicate edge 1 2 (first on line 2)"),
    ("n 3\x851 2 +\x852 1 -\x85", 3, "line 3: duplicate edge 1 2 (first on line 2)"),
    ("\N{LINE SEPARATOR}".join(("n 3", "1 2 +", "2 1 -")), 3,
     "line 3: duplicate edge 1 2 (first on line 2)"),
    ("n 3\r\n1 2 +\x85\N{LINE SEPARATOR}\r2 4 -\n", 5,
     "line 5: vertex index 4 exceeds declared count 3"),
]


class TestLineReaderErrors:
    @pytest.mark.parametrize("text,line_no,message", _FORMAT_ERRORS)
    def test_exact_error(self, text, line_no, message):
        with pytest.raises(GraphFormatError) as got:
            parse_signed_graph(text)
        assert (str(got.value), got.value.line_no) == (message, line_no)

    @pytest.mark.parametrize("text", ["# a path\n\nn 4\n1 4 +\n", "\n  # c\n\t\nn 4\n1 4 +",
                                      "n 4\x851 4 +", "\N{LINE SEPARATOR}n 4\r1 4 +"])
    def test_header_after_comments_and_blank_lines(self, text):
        assert parse_signed_graph(text) == SignedGraph(4, frozenset({(1, 4, 1)}))


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
        assert (prof.s1, prof.s2, prof.s3) == (6, 12, 24)

    def test_mixed_triangle(self):
        prof = degree_profile(K3M)
        assert prof.d_neg == (1, 0, 1)

    def test_path(self):
        prof = degree_profile(P3P)
        assert prof.d == (1, 2, 1)
        assert prof.edge_deg_min == 1
        assert prof.edge_deg_max == 1

    def test_isolated_vertex_markers(self):
        prof = degree_profile(EMPTY3)
        assert prof.edge_deg_min is None
        assert prof.edge_deg_max is None
        assert prof.max_deg == 0

    def test_invariants_on_seeded_corpus(self):
        from common import random_graphs

        for g in random_graphs(1000, base_seed=400, n_max=10, n_min=1, prob_lo=0.1):
            prof = degree_profile(g)
            assert prof.s1 == 2 * g.m
            assert prof.s2 == sum(x * x for x in prof.d)
            assert prof.s3 == sum(x ** 3 for x in prof.d)

    @given(signed_graphs())
    @settings(max_examples=200)
    def test_invariants(self, g):
        prof = degree_profile(g)
        m_neg = sum(1 for _, _, s in g.edges if s < 0)
        assert prof.s1 == 2 * g.m
        assert sum(prof.d_neg) == 2 * m_neg
        assert prof.s2 == sum(x * x for x in prof.d)
        assert prof.s3 == sum(x ** 3 for x in prof.d)
        # nds_j is the neighbor degree sum exactly
        for v in range(1, g.n + 1):
            want = sum(prof.d[(j if i == v else i) - 1] for i, j, _ in g.edges if v in (i, j))
            assert prof.nds[v - 1] == want
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
