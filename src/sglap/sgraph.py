"""Signed-graph data model, edge-list text format, and degree/triangle statistics.

Vertices are numbered 1..n.  Edges are unordered pairs carrying a sign of
+1 or -1; graphs are simple (no loops, no parallel edges).  All types are
immutable after construction; every operation here is a pure function.
Statistics of a graph are memoised on the graph object itself (see
:func:`cached_on_graph`), so each is computed once per graph.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

__all__ = [
    "MAX_VERTICES",
    "GraphFormatError",
    "SignedEdge",
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


class SignedEdge(NamedTuple):
    i: int
    j: int
    sign: int


@dataclass(frozen=True)
class SignedGraph:
    """A simple undirected graph on vertices 1..n with +1/-1 edge signs.

    ``edges`` holds normalized ``SignedEdge`` records with ``i < j``.
    Construct directly with an already-normalized frozenset, or use
    :meth:`from_edges` to normalize arbitrary (i, j, sign) triples.
    ``_memo`` holds the statistics computed on this instance; it takes no
    part in construction, equality, hashing or repr.
    """

    n: int
    edges: frozenset[SignedEdge]
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
            normalized.append(SignedEdge(a, b, sign))
        return cls(n, frozenset(normalized))

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def sorted_edges(self) -> list[SignedEdge]:
        return sorted(self.edges)

    @cached_on_graph
    def neighbor_map(self) -> Mapping[int, tuple[tuple[int, int], ...]]:
        """Read-only map of each vertex to its sorted (neighbor, sign) pairs."""
        acc: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, self.n + 1)}
        for e in self.edges:
            acc[e.i].append((e.j, e.sign))
            acc[e.j].append((e.i, e.sign))
        return MappingProxyType({v: tuple(sorted(pairs)) for v, pairs in acc.items()})


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
    nbrs = g.neighbor_map()
    d, d_pos, d_neg = [], [], []
    for v in range(1, g.n + 1):
        inc = nbrs[v]
        pos = sum(1 for _, s in inc if s > 0)
        d.append(len(inc))
        d_pos.append(pos)
        d_neg.append(len(inc) - pos)
    nds = [sum(d[u - 1] for u, _ in nbrs[v]) for v in range(1, g.n + 1)]
    s1 = sum(d)
    s2 = sum(x * x for x in d)
    s3 = sum(x ** 3 for x in d)
    edge_degs = [d[e.i - 1] + d[e.j - 1] - 2 for e in g.edges]
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
    """Count triangles and their signs by neighbor-list intersection.

    Walks each edge (i, j) with i < j and merges the sorted adjacency lists
    of both endpoints, keeping common neighbors k > j so every triangle is
    counted exactly once.  Runs in O(sum over edges of deg(i) + deg(j)).
    """
    nbrs = g.neighbor_map()
    adj = {v: [u for u, _ in nbrs[v]] for v in nbrs}
    sign_of = {(e.i, e.j): e.sign for e in g.edges}
    t_pos = t_neg = 0
    for e in g.sorted_edges():
        ai, aj = adj[e.i], adj[e.j]
        x = y = 0
        while x < len(ai) and y < len(aj):
            u, w = ai[x], aj[y]
            if u < w:
                x += 1
            elif w < u:
                y += 1
            else:
                if u > e.j:
                    s = e.sign * sign_of[(e.i, u)] * sign_of[(e.j, u)]
                    if s > 0:
                        t_pos += 1
                    else:
                        t_neg += 1
                x += 1
                y += 1
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
    edges: list[SignedEdge] = []
    pair_lines: dict[tuple[int, int], int] = {}
    max_index = 0
    # Per-line work is bound to locals.  tuple.__new__ builds a SignedEdge
    # from a ready (i, j, sign) tuple without the Python-level namedtuple
    # constructor.
    first_line = pair_lines.setdefault
    add_edge = edges.append
    sign_of = _SIGN_TOKENS.get
    new_edge = tuple.__new__
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
        add_edge(new_edge(SignedEdge, (i, j, sign)))
    if header_n is None:
        if not edges:
            raise GraphFormatError(1, "empty input: need a header line or at least one edge")
        header_n = max_index
    return SignedGraph(header_n, frozenset(edges))


def serialize_signed_graph(g: SignedGraph) -> str:
    """Render ``g`` in the edge-list format; round-trips through the parser."""
    lines = [f"n {g.n}"]
    for e in g.sorted_edges():
        lines.append(f"{e.i} {e.j} {'+' if e.sign > 0 else '-'}")
    return "\n".join(lines) + "\n"
