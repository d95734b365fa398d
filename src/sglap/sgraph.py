"""Signed-graph data model, edge-list text format, and degree/triangle statistics.

Vertices are numbered 1..n.  An edge is a plain ``(i, j, sign)`` tuple
with i < j and sign +1 or -1, and a graph's frozenset of them is its only
edge form; graphs are simple (no loops, no parallel edges).  All types are
immutable after construction; every operation here is a pure function.
Statistics of a graph are memoised on the graph object itself (see
:func:`cached_on_graph`), so each is computed once per graph.  Triangles
are counted combinatorially, from per-vertex neighbor bitmasks, never from
a matrix, so the trace identity tr(L^3) = s3 + 3 s2 - 6 t_net stays an
independent check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable

__all__ = [
    "MAX_VERTICES",
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


class GraphFormatError(ValueError):
    """Malformed edge-list input; ``line_no`` is the offending 1-based line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def cached_on_graph(fn):
    """Memoise ``fn(g)`` on the graph ``g`` it is called with.

    The value is stored in ``g``'s own memo dict, so it lives as long as
    that graph object, and a graph built from another one (switched,
    re-signed, a subgraph) starts with an empty memo.  ``fn`` must return an
    immutable or read-only value.  Concurrent first calls may both compute
    it; they store equal values, so no lock is needed.
    """

    @functools.wraps(fn)
    def cached(g):
        memo = g._memo
        value = memo.get(fn)
        if value is None:
            value = memo[fn] = fn(g)
        return value

    return cached


@dataclass(frozen=True)
class SignedGraph:
    """A simple undirected graph on vertices 1..n with +1/-1 edge signs.

    ``edges`` holds plain ``(i, j, sign)`` tuples with ``i < j``; it is the
    graph's only edge form, and every statistic reads it directly.
    Construct directly with an already-normalized frozenset, or use
    :meth:`from_edges` to normalize arbitrary (i, j, sign) triples.
    ``_memo`` holds the statistics computed on this instance; it takes no
    part in construction, equality, hashing or repr.
    """

    n: int
    edges: frozenset[tuple[int, int, int]]
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"vertex count must be a positive integer, got {n!r}")
        edges = self.edges
        repeated = set()
        for e in edges:
            i, j, sign = e
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
        return len(self.edges)


@dataclass(frozen=True)
class DegreeProfile:
    """Per-vertex degree statistics and their aggregates.

    Attributes:
        d: degree of each vertex.
        d_pos, d_neg: counts of incident positive / negative edges.
        d_net: d_pos - d_neg per vertex.
        nds: sum of the neighbors' degrees of each vertex.
        avg2: mean degree over each vertex's neighbors, ``nds / d``; ``None``
            marks an isolated vertex (the quantity is undefined there, never 0).
        s1, s2, s3: sums of degree powers (s1 equals twice the edge count).
        max_deg: largest degree.
        avg_deg: s1 / n.
        edge_deg_min, edge_deg_max: extremes of d_i + d_j - 2 over edges,
            ``None`` for edgeless graphs.

    Everything except ``avg2`` and ``avg_deg`` is an exact integer.
    """

    d: tuple[int, ...]
    d_pos: tuple[int, ...]
    d_neg: tuple[int, ...]
    d_net: tuple[int, ...]
    nds: tuple[int, ...]
    avg2: tuple[float | None, ...]
    s1: int
    s2: int
    s3: int
    max_deg: int
    avg_deg: float
    edge_deg_min: int | None
    edge_deg_max: int | None


@dataclass(frozen=True)
class TriangleStats:
    """Triangle counts split by sign (sign of a triangle = product of its edges)."""

    t: int
    t_pos: int
    t_neg: int
    t_net: int


@cached_on_graph
def degree_profile(g: SignedGraph) -> DegreeProfile:
    """Compute all per-vertex and aggregate degree statistics of ``g``."""
    # Lists indexed by vertex number; slot 0 is unused.
    deg = [0] * (g.n + 1)
    neg = [0] * (g.n + 1)
    for i, j, s in g.edges:
        deg[i] += 1
        deg[j] += 1
        if s < 0:
            neg[i] += 1
            neg[j] += 1
    nbr_deg = [0] * (g.n + 1)
    for i, j, _ in g.edges:
        nbr_deg[i] += deg[j]
        nbr_deg[j] += deg[i]
    d, d_neg, nds = deg[1:], neg[1:], nbr_deg[1:]
    d_pos = [k - q for k, q in zip(d, d_neg)]
    s1 = sum(d)
    s2 = sum(x * x for x in d)
    s3 = sum(x ** 3 for x in d)
    edge_degs = [deg[i] + deg[j] - 2 for i, j, _ in g.edges]
    return DegreeProfile(
        d=tuple(d),
        d_pos=tuple(d_pos),
        d_neg=tuple(d_neg),
        d_net=tuple(p - q for p, q in zip(d_pos, d_neg)),
        nds=tuple(nds),
        avg2=tuple(x / k if k else None for x, k in zip(nds, d)),
        s1=s1,
        s2=s2,
        s3=s3,
        max_deg=max(d),
        avg_deg=s1 / g.n,
        edge_deg_min=min(edge_degs) if edge_degs else None,
        edge_deg_max=max(edge_degs) if edge_degs else None,
    )


@cached_on_graph
def triangle_stats(g: SignedGraph) -> TriangleStats:
    """Count triangles and their signs with per-vertex neighbor bitmasks.

    Bit k of ``pos[v]`` (``neg[v]``) is set when vk is a positive (negative)
    edge and k > v.  For an edge (i, j) with i < j, the common neighbors
    k > j whose edges to i and j have the same sign are then the bits of
    ``(pos[i] & pos[j]) | (neg[i] & neg[j])``, and those with opposite signs
    the bits of ``(pos[i] & neg[j]) | (neg[i] & pos[j])``; triangle ijk has
    the edge's sign, or its opposite.  Each triangle is seen once, from the
    edge between its two smallest vertices.  Costs O(m * n / 64) word
    operations.
    """
    pos = [0] * (g.n + 1)
    neg = [0] * (g.n + 1)
    for i, j, s in g.edges:
        (pos if s > 0 else neg)[i] |= 1 << j
    t_pos = t_neg = 0
    for i, j, s in g.edges:
        pi, ni, pj, nj = pos[i], neg[i], pos[j], neg[j]
        same = ((pi & pj) | (ni & nj)).bit_count()
        opp = ((pi & nj) | (ni & pj)).bit_count()
        if s < 0:  # a negative edge flips the sign of its triangles
            same, opp = opp, same
        t_pos += same
        t_neg += opp
    return TriangleStats(t=t_pos + t_neg, t_pos=t_pos, t_neg=t_neg, t_net=t_pos - t_neg)


def parse_signed_graph(text: str) -> SignedGraph:
    """Parse the edge-list text format into a :class:`SignedGraph`.

    Format: an optional first line ``n <count>``; one edge per line as
    ``<i> <j> <sign>`` with sign one of ``+``, ``-``, ``+1``, ``-1``;
    ``#`` starts a comment; blank lines are ignored; LF or CRLF endings.
    Without a header the vertex count is the largest index seen.  Neither
    may exceed :data:`MAX_VERTICES`.

    Raises:
        GraphFormatError: malformed line, duplicate edge, self-loop, index
            out of range, vertex count over the limit, or missing sign
            token, with the line number.
    """
    header_n: int | None = None
    saw_content = False
    edges: list[tuple[int, int, int]] = []
    pair_lines: dict[tuple[int, int], int] = {}
    max_index = 0
    # Per-line work is bound to locals.
    first_line = pair_lines.setdefault
    add_edge = edges.append
    sign_of = _SIGN_TOKENS.get
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        # Past the first content line every 3-token line is an edge line.
        if len(tokens) != 3 or not saw_content:
            if not tokens:
                continue
            if not saw_content:
                saw_content = True
                if tokens[0] == "n":
                    if len(tokens) != 2:
                        raise GraphFormatError(line_no, "malformed header, expected 'n <count>'")
                    try:
                        header_n = int(tokens[1])
                    except ValueError:
                        raise GraphFormatError(
                            line_no, f"invalid vertex count {tokens[1]!r}"
                        ) from None
                    if header_n < 1:
                        raise GraphFormatError(line_no, "vertex count must be positive")
                    if header_n > MAX_VERTICES:
                        raise GraphFormatError(
                            line_no, f"vertex count {header_n} exceeds the limit {MAX_VERTICES}"
                        )
                    continue
            if len(tokens) == 2:
                raise GraphFormatError(line_no, "missing sign token")
            if len(tokens) != 3:
                raise GraphFormatError(
                    line_no, f"expected '<i> <j> <sign>', got {len(tokens)} fields"
                )
        a, b, sign_token = tokens
        try:
            i, j = int(a), int(b)
        except ValueError:
            raise GraphFormatError(line_no, "vertex indices must be integers") from None
        sign = sign_of(sign_token)
        if sign is None:
            raise GraphFormatError(line_no, f"invalid sign token {sign_token!r}")
        if i > j:
            i, j = j, i
        elif i == j:
            raise GraphFormatError(line_no, f"self-loop at vertex {i}")
        if i < 1:
            raise GraphFormatError(line_no, "vertex indices start at 1")
        if header_n is not None and j > header_n:
            raise GraphFormatError(line_no, f"vertex index {j} exceeds declared count {header_n}")
        first = first_line((i, j), line_no)
        if first != line_no:
            raise GraphFormatError(line_no, f"duplicate edge {i} {j} (first on line {first})")
        if j > max_index:
            # Reached only with no header, whose count already bounds j.
            if j > MAX_VERTICES:
                raise GraphFormatError(
                    line_no, f"vertex index {j} exceeds the limit {MAX_VERTICES}"
                )
            max_index = j
        add_edge((i, j, sign))
    if header_n is None:
        if not edges:
            raise GraphFormatError(1, "empty input: need a header line or at least one edge")
        header_n = max_index
    return SignedGraph(header_n, frozenset(edges))


def serialize_signed_graph(g: SignedGraph) -> str:
    """Render ``g`` in the edge-list format; round-trips through the parser."""
    lines = [f"n {g.n}"]
    for i, j, s in sorted(g.edges):
        lines.append(f"{i} {j} {'+' if s > 0 else '-'}")
    return "\n".join(lines) + "\n"
