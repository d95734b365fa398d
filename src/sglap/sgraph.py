"""Signed-graph data model, edge-list text format, and degree/triangle statistics.

Vertices are numbered 1..n.  An edge is a plain ``(i, j, sign)`` tuple
with i < j and sign +1 or -1; graphs are simple (no loops, no parallel
edges).  Every graph holds its edges as :func:`edge_arrays`, int64 arrays
sorted by pair, from construction on, and every statistic reads them.  They
are the rows of one read-only (3, m) block, so each is unit-stride.  All
types are immutable after construction; every operation here is a pure
function.  Nothing is stored on a graph but its edges: each statistic is
computed from the edge arrays afresh on every call.

Statistics are computed for a batch of graphs at once, held as one
disjoint union (:class:`_Union`); a single graph is a batch of one.
Triangles are counted from the 0/1 adjacency of each sign, never from a
Laplacian, so ``spectra.power_traces`` checked against a matrix trace stays
an independent check.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

__all__ = [
    "GraphFormatError",
    "SignedGraph",
    "DegreeProfile",
    "TriangleStats",
    "parse_signed_graph",
    "serialize_signed_graph",
    "degree_profile",
    "triangle_stats",
]

_SIGN_TOKENS = {"+": 1, "+1": 1, "-": -1, "-1": -1}

# Largest vertex count the parser accepts.  Statistics size per-vertex
# lists by n and matrices by n^2, so a few bytes of header must not be able
# to ask for more.
MAX_VERTICES = 1_000_000

# Most entries one batched array operation may hold: a stack of matrices,
# a block of generator draws, a block of per-edge bit rows.  Work past it is
# split into chunks, so memory does not grow with the batch.
_BATCH_ELEMENTS = 1 << 22

# Text exactly as serialize_signed_graph writes it, up to the order of the
# edge lines and of the two indices on a line: the header, then "i j sign"
# lines, every number at most 7 ASCII digits.  The header is matched here;
# numpy checks the lines and reads the numbers (_serialized_rows).
_SERIALIZED_HEADER = re.compile(rb"n ([0-9]{1,7})\n")
# A little-endian word with the byte 1 in each of its eight bytes; k * _BYTES
# holds the byte k in each.
_BYTES = np.uint64(0x0101010101010101)
# Multiplying a word whose bytes are 0 or 1 by this gathers byte k's value
# into bit 56 + k.
_GATHER_BITS = np.uint64(0x0102040810204080)
# Entry v, for v with bit k set where byte k is not a digit: the digits on
# top of a word's eight bytes.
_TOP_DIGITS = np.array([8 - v.bit_length() for v in range(256)], dtype=np.uint8)


class GraphFormatError(ValueError):
    """Malformed edge-list input; ``line_no`` is the offending 1-based line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class SignedGraph:
    """A simple undirected graph on vertices 1..n with +1/-1 edge signs.

    ``edges``, a frozenset of ``(i, j, sign)`` tuples with ``i < j``,
    defines equality, hashing and repr; ``_arrays`` holds the same edges as
    :func:`edge_arrays`, read by everything else; nothing computed from
    them is stored on the instance.  Construct directly with a
    normalized frozenset, or use :meth:`from_edges`.  A graph built from
    edge arrays alone (parsed, switched, re-signed or unpickled) builds
    ``edges`` from them on first read.
    """

    n: int
    edges: frozenset[tuple[int, int, int]]
    _arrays: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n
        # Exact ints only: a bool or a numpy integer compares and hashes like
        # the int it stands for, so it would pass every other check.
        if type(n) is not int or n < 1:
            raise ValueError(f"vertex count must be a positive integer, got {n!r}")
        if "edges" not in self.__dict__:
            # Built from edge arrays: the loop's checks, vectorized, and the
            # arrays' own form, int64 and strictly ascending by (i, j).
            i, j, sign = self._arrays
            if not i.dtype == j.dtype == sign.dtype == np.int64:
                raise ValueError("edge arrays must be int64, not "
                                 f"{i.dtype}, {j.dtype}, {sign.dtype}")
            if ((i < 1) | (j <= i) | (j > n)).any():
                raise ValueError(f"edge out of range for n={n} (need 1 <= i < j <= n)")
            if ((sign != 1) & (sign != -1)).any():
                raise ValueError("edge sign other than +1 or -1")
            if ((i[1:] < i[:-1]) | ((i[1:] == i[:-1]) & (j[1:] <= j[:-1]))).any():
                raise ValueError("edge pairs must be distinct and ascend by (i, j)")
            return
        edges = self.edges
        # A list or tuple could repeat a triple, and would not hash.
        if not isinstance(edges, frozenset):
            raise ValueError(f"edges must be a frozenset, got {type(edges).__name__}")
        repeated = set()
        for e in edges:
            i, j, sign = e
            if type(i) is not int or type(j) is not int or type(sign) is not int:
                raise ValueError(f"edge {e} has an entry that is not an int")
            if not (1 <= i < j <= n):
                raise ValueError(f"edge {e} out of range for n={n} (need 1 <= i < j <= n)")
            if sign not in (1, -1):
                raise ValueError(f"edge {e} has sign {sign!r}, expected +1 or -1")
            # A set holds each triple once, so a pair can only repeat with the
            # opposite sign; the error is raised at its second occurrence.
            if (i, j, -sign) in edges:
                if (i, j) in repeated:
                    raise ValueError(f"duplicate edge between {i} and {j}")
                repeated.add((i, j))
        # Python's sort, not numpy's: it is the cheaper one at n = 10.
        object.__setattr__(self, "_arrays", _read_only_columns(np.fromiter(
            itertools.chain.from_iterable(zip(*sorted(edges))), dtype=np.int64,
            count=3 * len(edges))))

    @classmethod
    def _from_edge_arrays(cls, n: int, i: np.ndarray, j: np.ndarray,
                          sign: np.ndarray) -> "SignedGraph":
        """The graph whose :func:`edge_arrays` are ``i``, ``j`` and ``sign``,
        which must be read-only; it is checked like any other, and builds
        ``edges`` from them on first read."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "_arrays", (i, j, sign))
        g.__post_init__()
        return g

    def _resigned(self, sign: np.ndarray) -> "SignedGraph":
        """This graph's pairs with ``sign``, an int64 array that owns its
        data, made read-only: no view of it can be made writeable again."""
        sign.setflags(write=False)
        i, j, _ = self._arrays
        return SignedGraph._from_edge_arrays(self.n, i, j, sign[:])

    def __reduce__(self):
        # The edge arrays alone, so unpickling runs the constructor's checks,
        # as the (m, 3) block earlier releases wrote, so their pickles load.
        return _unpickle_edge_block, (self.n, np.column_stack(self._arrays))

    def __getattr__(self, name):
        # Called only when ``name`` is not set: for ``edges``, on a graph
        # built from arrays whose edge set nothing has read yet.
        if name != "edges":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        edges = frozenset(zip(*(column.tolist() for column in self._arrays)))
        object.__setattr__(self, "edges", edges)
        return edges

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int, int]]) -> "SignedGraph":
        """Build a graph, normalizing each (i, j, sign) triple to i < j."""
        normalized = []
        seen = set()
        for i, j, sign in edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            a, b = (i, j) if i < j else (j, i)
            if (a, b) in seen:
                raise ValueError(f"duplicate edge between {a} and {b}")
            seen.add((a, b))
            normalized.append((a, b, sign))
        return cls(n, frozenset(normalized))

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self._arrays[0])


def _read_only_columns(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (i, j, sign) rows of ``edges``, a C-contiguous array that owns its
    data and holds every edge's i, then every j, then every sign, so each
    row is unit-stride.  It becomes read-only, so no view of it can be made
    writeable again."""
    edges.setflags(write=False)
    i, j, sign = edges.reshape(3, -1)
    return i, j, sign


def _unpickle_edge_block(n: int, edges: np.ndarray) -> SignedGraph:
    """The array-built graph whose pickled edge arrays are the columns of
    ``edges``, an (m, 3) block, read from a C-order copy of its transpose:
    under pickle protocol 5 ``edges`` can view a writeable buffer, through
    which the arrays could be written."""
    return SignedGraph._from_edge_arrays(n, *_read_only_columns(edges.T.copy()))


def edge_arrays(g: SignedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``g``'s edges as read-only int64 arrays ``(i, j, sign)`` sorted by
    (i, j), so two graphs on the same pairs have equal ``i`` and ``j``; the
    rows of one (3, m) block, each unit-stride."""
    return g._arrays


@dataclass(frozen=True)
class DegreeProfile:
    """Per-vertex degree statistics and their aggregates.

    Attributes:
        d: degree of each vertex.
        d_neg: count of incident negative edges of each vertex.
        nds: sum of the neighbors' degrees of each vertex.
        s1, s2, s3: sums of degree powers (s1 equals twice the edge count).
        max_deg: largest degree.
        edge_deg_min, edge_deg_max: extremes of d_i + d_j - 2 over edges,
            ``None`` for edgeless graphs.

    Every field is an exact integer.
    """

    d: tuple[int, ...]
    d_neg: tuple[int, ...]
    nds: tuple[int, ...]
    s1: int
    s2: int
    s3: int
    max_deg: int
    edge_deg_min: int | None
    edge_deg_max: int | None


@dataclass(frozen=True)
class TriangleStats:
    """Triangle counts split by sign (sign of a triangle = product of its edges)."""

    t: int
    t_pos: int
    t_neg: int
    t_net: int


class _Union:
    """A batch of graphs held as one disjoint union.

    Graph b has ``n[b]`` vertices, the union's (0-based) vertices
    ``voff[b]`` to ``voff[b + 1] - 1``, and ``m[b]`` edges, ``eoff[b]`` to
    ``eoff[b + 1] - 1``, ascending by pair.  ``i``, ``j`` and ``sign`` are
    the union's int64 edge arrays, ``li`` and ``lj`` the ends' 0-based
    numbers inside their own graph, ``vgraph`` and ``egraph`` the graph of
    each vertex and edge.  A per-vertex sum over the whole batch is then one
    ``np.bincount`` and a per-graph sum or extreme one pass over segments:
    the mini-batching of graph-learning libraries (Fey & Lenssen, *Fast
    Graph Representation Learning with PyTorch Geometric*, 2019).
    """

    def __init__(self, n, m, i, j, sign):
        self.n, self.m, self.i, self.j, self.sign = n, m, i, j, sign
        self.voff = np.concatenate(([0], n.cumsum()))
        self.eoff = np.concatenate(([0], m.cumsum()))
        self.vgraph = np.arange(len(n)).repeat(n)
        self.egraph = np.arange(len(n)).repeat(m)
        base = self.voff[self.egraph]
        self.li, self.lj = i - base, j - base

    @classmethod
    def of(cls, graphs) -> "_Union":
        """The union of ``graphs``, a nonempty sequence, in order."""
        n = np.array([g.n for g in graphs], dtype=np.int64)
        i, j, sign = (np.concatenate(column) for column in zip(*map(edge_arrays, graphs)))
        m = np.array([g.m for g in graphs], dtype=np.int64)
        shift = np.repeat(np.cumsum(n) - n - 1, m)
        return cls(n, m, i + shift, j + shift, sign)

    def graph(self, b: int) -> SignedGraph:
        """Graph ``b`` on its own, held as its edge arrays."""
        lo, hi, base = self.eoff[b], self.eoff[b + 1], self.voff[b] - 1
        rows = np.stack((self.i[lo:hi] - base, self.j[lo:hi] - base, self.sign[lo:hi]))
        return SignedGraph._from_edge_arrays(int(self.n[b]), *_read_only_columns(rows))


def _exact_dtype(bound: int, limit: int = 2 ** 63):
    """int64 when ``bound``, proven to be at least every integer the caller
    derives from its values, is below ``limit``; otherwise object, so numpy
    computes on Python ints.  The limit is 2^63 for integer results, and
    2^53 for integers the caller converts to float64, which holds every
    integer below 2^53 exactly."""
    return np.int64 if bound < limit else object


def _segments(ufunc, x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``ufunc.reduce`` (``np.add``, ``np.maximum`` or ``np.minimum``) of each
    segment ``x[..., offsets[k]:offsets[k + 1]]``; 0 for an empty segment,
    where ``reduceat`` would read a single element."""
    full = offsets[1:] > offsets[:-1]
    if np.count_nonzero(full) == len(full):
        return ufunc.reduceat(x, offsets[:-1], axis=-1)
    out = np.zeros(x.shape[:-1] + full.shape, x.dtype)
    out[..., full] = ufunc.reduceat(x, offsets[:-1][full], axis=-1)
    return out


def _degree_stats(u: _Union):
    """Degree statistics of every graph of ``u`` in one pass.

    Returns per-vertex int64 arrays ``d``, ``d_neg`` and ``nds`` (sum of the
    neighbors' degrees) over the union, and a dict of per-graph arrays:
    ``s1``-``s3`` (degree power sums), ``max_deg``, ``edge_deg_min`` and
    ``edge_deg_max`` (extremes of d_i + d_j - 2 over edges, 0 without an
    edge) and ``net1``-``net3``, the exact moments x^T L^k x at x = all-ones
    (see ``spectra.rayleigh_moment``).  ``nds`` is at most max_deg^2 < 2^40,
    so its float ``bincount`` is exact; the power sums, whose terms add up
    to at most 16 max_deg^2 m, are Python ints when that reaches 2^63.
    """
    count = len(u.vgraph)
    ends = np.concatenate((u.i, u.j))
    d = np.bincount(ends, minlength=count)
    negative = u.sign < 0
    d_neg = np.bincount(ends[np.concatenate((negative, negative))], minlength=count)
    nds = (np.bincount(u.i, d[u.j], count) + np.bincount(u.j, d[u.i], count)).astype(np.int64)
    top = int(d.max())
    wide = _exact_dtype(16 * top * top * len(u.i))
    dw, nw = d.astype(wide), d_neg.astype(wide)
    dsq, nsq = dw * dw, nw * nw
    s1, s2, s3, n1, n2, n3 = _segments(
        np.add, np.array((dw, dsq, dsq * dw, nw, nsq, dw * nsq)), u.voff)
    cross = _segments(np.add, u.sign.astype(wide) * nw[u.i] * nw[u.j], u.eoff)
    edge_deg = d[u.i] + d[u.j] - 2
    return d, d_neg, nds, {
        "s1": s1, "s2": s2, "s3": s3,
        "max_deg": _segments(np.maximum, d, u.voff),
        "edge_deg_min": _segments(np.minimum, edge_deg, u.eoff),
        "edge_deg_max": _segments(np.maximum, edge_deg, u.eoff),
        "net1": 2 * n1,
        "net2": 4 * n2,
        "net3": 4 * n3 - 8 * cross,
    }


# Number of set bits of each byte value.
_BITS_SET = np.array([byte.bit_count() for byte in range(256)], dtype=np.uint8)


def _triangle_counts(u: _Union) -> np.ndarray:
    """Rows t_pos and t_neg of every graph of ``u``, counted from the 0/1
    adjacency of each sign, never from a Laplacian.

    Row v of p (n) holds v's 0/1 adjacency to its positive (negative)
    neighbors numbered above it, packed 8 to a byte.  For an edge (i, j),
    i < j, the common neighbors k > j whose edges to i and j have the same
    sign are the set bits of ``(p[i] & p[j]) | (n[i] & n[j])``, those with
    opposite signs the bits of ``(p[i] & n[j]) | (n[i] & p[j])``; triangle
    ijk has the edge's sign, or its opposite.  Each triangle is
    seen once, from the edge between its two smallest vertices.  Costs
    O(m n / 8) byte operations, in chunks of at most ``_BATCH_ELEMENTS``.
    """
    rows = np.zeros((2, len(u.vgraph), (int(u.n.max()) + 7) // 8), dtype=np.uint8)
    np.bitwise_or.at(rows, ((u.sign < 0).astype(np.intp), u.i, u.lj >> 3),
                     np.left_shift(1, u.lj & 7).astype(np.uint8))
    common = np.empty((2, len(u.i)), dtype=np.int64)  # same-sign, opposite-sign
    step = max(1, _BATCH_ELEMENTS // rows.shape[2])
    for lo in range(0, len(u.i), step):
        # take, not rows[:, index]: numpy's fancy indexing copies each
        # row's few bytes in a slow general loop.
        (pi, ni), (pj, nj) = (rows.take(ends[lo:lo + step], axis=1) for ends in (u.i, u.j))
        bits = np.array(((pi & pj) | (ni & nj), (pi & nj) | (ni & pj)))
        common[:, lo:lo + step] = _BITS_SET.take(bits).sum(axis=2, dtype=np.int64)
    # A negative edge flips the sign of its triangles.
    return _segments(np.add, np.where(u.sign > 0, common, common[::-1]), u.eoff)


def degree_profile(g: SignedGraph) -> DegreeProfile:
    """Compute all per-vertex and aggregate degree statistics of ``g``."""
    d, d_neg, nds, sums = _degree_stats(_Union.of([g]))
    one = {key: column.tolist()[0] for key, column in sums.items()}
    extremes = (one["edge_deg_min"], one["edge_deg_max"]) if g.m else (None, None)
    return DegreeProfile(tuple(d.tolist()), tuple(d_neg.tolist()), tuple(nds.tolist()),
                         one["s1"], one["s2"], one["s3"], one["max_deg"], *extremes)


def triangle_stats(g: SignedGraph) -> TriangleStats:
    """Count triangles and their signs (see :func:`_triangle_counts`)."""
    (t_pos,), (t_neg,) = _triangle_counts(_Union.of([g])).tolist()
    return TriangleStats(t=t_pos + t_neg, t_pos=t_pos, t_neg=t_neg, t_net=t_pos - t_neg)


def parse_signed_graph(text: str) -> SignedGraph:
    """Parse the edge-list text format into a :class:`SignedGraph`.

    Format: an optional first line ``n <count>``; one edge per line as
    ``<i> <j> <sign>`` with sign one of ``+``, ``-``, ``+1``, ``-1``;
    ``#`` starts a comment; blank lines are ignored.  A line ends at every
    boundary :meth:`str.splitlines` knows: ``\n``, ``\r\n``, ``\r``,
    ``\x0b``, ``\x0c``, ``\x1c``-``\x1e``, ``\x85``, U+2028 and U+2029.
    Without a header the vertex count is the largest index seen.  Neither
    may exceed :data:`MAX_VERTICES`.

    Text in the form :func:`serialize_signed_graph` writes (edge lines in
    any order, either index first) is read by numpy from its ASCII bytes
    (:func:`_parse_padded`); any other text, and any such text that breaks
    a rule, is read line by line, so every error comes from the line
    reader.

    Raises:
        GraphFormatError: malformed line, duplicate edge, self-loop, index
            out of range, vertex count over the limit, or missing sign
            token, with the line number.
    """
    if text.isascii():
        g = _parse_padded(np.frombuffer(bytes(8) + text.encode("ascii"), np.uint8))
        if g is not None:
            return g
    return _parse_lines(text)


def _parse_padded(padded: np.ndarray, resigner: bool = False) -> SignedGraph | tuple | None:
    """The graph of the text whose bytes are ``padded[8:]``, behind eight
    zero bytes, held as its sorted :func:`edge_arrays`, if that text is in
    the serializer's form (:func:`_serialized_rows`) and keeps every rule
    of the format, as the checked constructor checks; otherwise None, and
    the line reader must read it and name its error.  With ``resigner``,
    ``(g, resign)``: ``resign`` reads a text differing only in sign bytes by them."""
    form = _serialized_rows(padded)
    if form is None or form[0] > MAX_VERTICES:
        return None
    n, rows, starts = form
    # Smaller index first, then the edges sorted by (i, j) through one int64
    # key (n has at most 7 digits), unless they already ascend, as the
    # serializer writes them.  A repeated pair ends up next to its twin,
    # where the constructor's ascending check refuses it.
    i, j = rows[0], rows[1]
    smaller = np.minimum(i, j)
    np.maximum(i, j, out=j)
    i[:] = smaller
    del smaller
    key = i * (n + 1)
    key += j
    order = None
    if (key[1:] <= key[:-1]).any():
        rows = rows.take(order := np.argsort(key), axis=1)
    try:
        g = SignedGraph._from_edge_arrays(n, *_read_only_columns(rows))
    except ValueError:
        return None
    return (g, lambda other: _resigned_twin(g, padded, starts, order, other)) if resigner else g


def _resigned_twin(g: SignedGraph, padded, starts, order, other) -> SignedGraph | None:
    """``g``, read from ``padded`` with lines starting at ``starts``, in rows
    ordered by ``order`` (None: as read), re-signed by the padded text
    ``other`` if it differs only in a ``+`` or ``-`` at its sign bytes; else None."""
    if len(other) != len(padded):
        return None
    # A line's sign lies two bytes before the next line's start, or the end.
    sign = np.append(other[6:].take(starts[1:]), other[-2:-1])[:len(starts)]
    if ((sign != ord("+")) & (sign != ord("-"))).any():
        return None
    sign = np.subtract(ord(","), sign if order is None else sign.take(order), dtype=np.int64)
    # Every byte that differs is a sign byte iff as many bytes as signs differ.
    same = np.count_nonzero(padded != other) == np.count_nonzero(sign != edge_arrays(g)[2])
    return g._resigned(sign) if same else None


def _serialized_rows(padded: np.ndarray) -> tuple[int, np.ndarray, np.ndarray] | None:
    """``(n, rows, starts)`` of the text whose bytes are ``padded[8:]`` if it
    is in the serializer's form, otherwise None: the header's count, a (3, m)
    int64 block of each edge line's numbers and sign, in the text's order,
    and where in the text each edge line starts.

    After the header, every line must be a number, a space, a number, a
    space, a sign and a newline, the text must end in a newline, and each
    number must have 1 to 7 ASCII digits.  Only the newlines are searched
    for; each line is read from its end.  Its sign lies before its
    newline, and each number is read once, as the little-endian word of
    the eight bytes ending at the space after it (:func:`_read_numbers`):
    the second number's word ends two bytes before the newline, the first
    number's one byte before the second number's first digit.  The bytes
    so found for a line, its numbers, spaces, sign and newline, cannot
    hold the previous line's newline, so they are never more than the
    line's bytes, and they are all of them on every line, with no bytes
    after the last newline, iff they add up to the whole body.
    """
    text = padded[8:]
    header = _SERIALIZED_HEADER.match(text[:10].tobytes())
    if header is None:
        return None
    at = np.flatnonzero(text == ord("\n"))[1:]  # each edge line's newline
    at -= 1
    sign = text[at]
    if not ((sign == ord("+")) | (sign == ord("-"))).all():
        return None
    rows = np.empty((3, len(at)), dtype=np.int64)
    np.subtract(ord(","), sign, out=rows[2], dtype=np.int64)  # "+" and "-" flank ","
    del sign
    # words[t + 1] is the word of the eight bytes ending at text byte t, so
    # words[at] ends at the space before the byte at.
    words = np.ndarray(len(padded) - 7, "<u8", padded, strides=(1,))
    covered = 4 * len(at)  # the spaces, signs and newlines
    for row in (1, 0):
        digits = _read_numbers(words[at], rows[row])
        if digits is None:
            return None
        covered += int(digits.sum(dtype=np.int64))
        at -= digits
        at -= 1
    return (int(header[1]), rows, at) if covered == len(text) - header.end() else None


def _read_numbers(words: np.ndarray, out: np.ndarray) -> np.ndarray | None:
    """The digit counts of the numbers each ending right below a word's top
    byte, each decoded into ``out``; None unless each top byte is a space
    and each number has 1 to 7 ASCII digits.  ``words`` is overwritten.

    SWAR (SIMD within a register): the top bit of each byte flags a byte
    that is not an ASCII digit, one multiply gathers the eight flags into
    a byte, and a table gives the digits above the highest flag.  Each
    number is then decoded in place by simdjson's eight-digit parse
    (Langdale and Lemire, 2019).
    """
    space = (words >= 0x20 << 56) & (words < 0x21 << 56)  # the top byte is " "
    words <<= 8  # the digits on top, and below them a zero byte, flagged
    flags = words & (0x7F * _BYTES)
    flags ^= 0x30 * _BYTES  # the seven low bits of a digit become 0 to 9
    flags += 0x76 * _BYTES  # bit 7 set in each byte whose low bits exceed 9
    flags |= words  # and in each byte that is not ASCII
    flags &= 0x80 * _BYTES
    flags >>= 7
    flags *= _GATHER_BITS
    flags >>= 56
    digits = _TOP_DIGITS.take(flags.view(np.int64))
    del flags
    if not (space & (digits > 0)).all():
        return None
    below = 8 - digits
    below <<= 3  # the bits below the digits, 8 to 56
    words >>= below
    words <<= below
    words &= 0x0F * _BYTES
    for multiplier, shift, mask in ((2561, 8, 0x00FF00FF00FF00FF),
                                    (6553601, 16, 0x0000FFFF0000FFFF)):
        words *= multiplier
        words >>= shift
        words &= mask
    words *= 42949672960001
    np.right_shift(words, 32, out=out)
    return digits


def _parse_lines(text: str) -> SignedGraph:
    """The line reader: every input form, and every ``GraphFormatError``."""
    header_n: int | None = None
    edges: list[tuple[int, int, int]] = []
    pair_lines: dict[tuple[int, int], int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        # The first content line is the header if it starts with "n".  Every
        # content line sets the header, adds an edge or raises, so the first
        # is the one that finds neither set.
        if header_n is None and not edges and tokens[0] == "n":
            if len(tokens) != 2:
                raise GraphFormatError(line_no, "malformed header, expected 'n <count>'")
            try:
                header_n = int(tokens[1])
            except ValueError:
                raise GraphFormatError(line_no, f"invalid vertex count {tokens[1]!r}") from None
            if header_n < 1:
                raise GraphFormatError(line_no, "vertex count must be positive")
            if header_n > MAX_VERTICES:
                raise GraphFormatError(
                    line_no, f"vertex count {header_n} exceeds the limit {MAX_VERTICES}")
            continue
        if len(tokens) == 2:
            raise GraphFormatError(line_no, "missing sign token")
        if len(tokens) != 3:
            raise GraphFormatError(line_no, f"expected '<i> <j> <sign>', got {len(tokens)} fields")
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphFormatError(line_no, "vertex indices must be integers") from None
        sign = _SIGN_TOKENS.get(tokens[2])
        if sign is None:
            raise GraphFormatError(line_no, f"invalid sign token {tokens[2]!r}")
        if i == j:
            raise GraphFormatError(line_no, f"self-loop at vertex {i}")
        if i > j:
            i, j = j, i
        if i < 1:
            raise GraphFormatError(line_no, "vertex indices start at 1")
        if header_n is not None and j > header_n:
            raise GraphFormatError(line_no, f"vertex index {j} exceeds declared count {header_n}")
        first = pair_lines.setdefault((i, j), line_no)
        if first != line_no:
            raise GraphFormatError(line_no, f"duplicate edge {i} {j} (first on line {first})")
        # Only without a header: a declared count already bounds j.
        if j > MAX_VERTICES:
            raise GraphFormatError(line_no, f"vertex index {j} exceeds the limit {MAX_VERTICES}")
        edges.append((i, j, sign))
    if header_n is None:
        if not edges:
            raise GraphFormatError(1, "empty input: need a header line or at least one edge")
        header_n = max(j for _, j, _ in edges)
    return SignedGraph(header_n, frozenset(edges))


def serialize_signed_graph(g: SignedGraph) -> str:
    """Render ``g`` in the edge-list format; round-trips through the parser."""
    i, j, sign = edge_arrays(g)
    signs = np.where(sign > 0, "+", "-").tolist()
    return f"n {g.n}\n" + "".join(map("{} {} {}\n".format, i.tolist(), j.tolist(), signs))
