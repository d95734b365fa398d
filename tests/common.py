"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the package's computation paths: matrices
are rebuilt from the edge list, triangles come from a full triple scan,
component counts from a fresh BFS, eigenvalues from a cyclic Jacobi
iteration (the package itself calls LAPACK), and parsed graphs from a
straightforward line-by-line parser.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np

from sglap import GeneratorConfig, GraphFormatError, SignedGraph, generate

# Small named graphs.  Naming: K/P/STAR + size + signature (P all-positive,
# N all-negative, M mixed).
K1 = SignedGraph.from_edges(1, [])
K2P = SignedGraph.from_edges(2, [(1, 2, 1)])
K2N = SignedGraph.from_edges(2, [(1, 2, -1)])
K3P = SignedGraph.from_edges(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
K3N = SignedGraph.from_edges(3, [(1, 2, -1), (2, 3, -1), (1, 3, -1)])
K3M = SignedGraph.from_edges(3, [(1, 2, 1), (2, 3, 1), (1, 3, -1)])
P3P = SignedGraph.from_edges(3, [(1, 2, 1), (2, 3, 1)])
P3N = SignedGraph.from_edges(3, [(1, 2, -1), (2, 3, -1)])
STAR3P = SignedGraph.from_edges(4, [(1, 2, 1), (1, 3, 1), (1, 4, 1)])
K3P_K3N = SignedGraph.from_edges(
    6, [(1, 2, 1), (2, 3, 1), (1, 3, 1), (4, 5, -1), (5, 6, -1), (4, 6, -1)]
)
EMPTY3 = SignedGraph.from_edges(3, [])


_ORACLE_SIGNS = {"+": 1, "+1": 1, "-": -1, "-1": -1}
_ORACLE_MAX_VERTICES = 1_000_000


def oracle_parse(text: str) -> SignedGraph:
    """Reference edge-list parser: one readable pass with every check in the
    order the format documents, raising the package's ``GraphFormatError``
    messages and line numbers.  The package parser must agree with it on any
    text, graphs and errors alike."""
    header_n: int | None = None
    saw_content = False
    edges: list[tuple[int, int, int]] = []
    pair_lines: dict[tuple[int, int], int] = {}
    max_index = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not saw_content and tokens[0] == "n":
            saw_content = True
            if len(tokens) != 2:
                raise GraphFormatError(line_no, "malformed header, expected 'n <count>'")
            try:
                header_n = int(tokens[1])
            except ValueError:
                raise GraphFormatError(line_no, f"invalid vertex count {tokens[1]!r}") from None
            if header_n < 1:
                raise GraphFormatError(line_no, "vertex count must be positive")
            if header_n > _ORACLE_MAX_VERTICES:
                raise GraphFormatError(
                    line_no, f"vertex count {header_n} exceeds the limit {_ORACLE_MAX_VERTICES}"
                )
            continue
        saw_content = True
        if len(tokens) == 2:
            raise GraphFormatError(line_no, "missing sign token")
        if len(tokens) != 3:
            raise GraphFormatError(line_no, f"expected '<i> <j> <sign>', got {len(tokens)} fields")
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphFormatError(line_no, "vertex indices must be integers") from None
        sign = _ORACLE_SIGNS.get(tokens[2])
        if sign is None:
            raise GraphFormatError(line_no, f"invalid sign token {tokens[2]!r}")
        if i == j:
            raise GraphFormatError(line_no, f"self-loop at vertex {i}")
        if i < 1 or j < 1:
            raise GraphFormatError(line_no, "vertex indices start at 1")
        if header_n is not None and max(i, j) > header_n:
            raise GraphFormatError(
                line_no, f"vertex index {max(i, j)} exceeds declared count {header_n}"
            )
        pair = (min(i, j), max(i, j))
        if pair in pair_lines:
            raise GraphFormatError(
                line_no,
                f"duplicate edge {pair[0]} {pair[1]} (first on line {pair_lines[pair]})",
            )
        pair_lines[pair] = line_no
        if header_n is None and max(i, j) > _ORACLE_MAX_VERTICES:
            raise GraphFormatError(
                line_no, f"vertex index {max(i, j)} exceeds the limit {_ORACLE_MAX_VERTICES}"
            )
        max_index = max(max_index, i, j)
        edges.append((pair[0], pair[1], sign))
    if header_n is None:
        if not edges:
            raise GraphFormatError(1, "empty input: need a header line or at least one edge")
        header_n = max_index
    return SignedGraph(header_n, frozenset(edges))


def oracle_graph_error(n, edges) -> str | None:
    """The ``ValueError`` message ``SignedGraph(n, edges)`` must raise, or
    None: every edge checked in iteration order, range before sign before a
    repeated pair, with the pairs seen so far kept in a set."""
    if not isinstance(n, int) or n < 1:
        return f"vertex count must be a positive integer, got {n!r}"
    pairs = set()
    for e in edges:
        i, j, s = e
        if not (1 <= i < j <= n):
            return f"edge {e} out of range for n={n} (need 1 <= i < j <= n)"
        if s not in (1, -1):
            return f"edge {e} has sign {s!r}, expected +1 or -1"
        if (i, j) in pairs:
            return f"duplicate edge between {i} and {j}"
        pairs.add((i, j))
    return None


def oracle_laplacian(g: SignedGraph) -> np.ndarray:
    """Integer Laplacian built directly from the edge list."""
    m = np.zeros((g.n, g.n), dtype=np.int64)
    for i, j, s in g.edges:
        m[i - 1, j - 1] = -s
        m[j - 1, i - 1] = -s
        m[i - 1, i - 1] += 1
        m[j - 1, j - 1] += 1
    return m


def oracle_eigs(matrix: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues by cyclic Jacobi rotations, without LAPACK.

    Sweeps the strict upper triangle in row order, each rotation zeroing
    one off-diagonal pair, until the off-diagonal Frobenius norm is below
    1e-13 times the matrix norm (quadratic convergence gets there in a few
    sweeps at the orders the tests use).
    """
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    stop = 1e-13 * max(1.0, float(np.linalg.norm(a)))
    for _ in range(50):
        if np.linalg.norm(np.triu(a, 1)) * math.sqrt(2.0) <= stop:
            return np.sort(np.diagonal(a))
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p], a[:, q] = c * col_p - s * col_q, s * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :], a[q, :] = c * row_p - s * row_q, s * row_p + c * row_q
    raise AssertionError("Jacobi oracle did not converge in 50 sweeps")


def oracle_rayleigh(g: SignedGraph, k: int) -> int:
    """x^T L^k x at x = all-ones by explicit integer matrix products."""
    lap = oracle_laplacian(g)
    ones = np.ones(g.n, dtype=np.int64)
    acc = ones
    for _ in range(k):
        acc = lap @ acc
    return int(ones @ acc)


def oracle_trace(g: SignedGraph, k: int) -> int:
    lap = oracle_laplacian(g)
    power = np.linalg.matrix_power(lap, k)
    return int(np.trace(power))


def oracle_triangles(g: SignedGraph) -> tuple[int, int, int]:
    """(t, t_pos, t_neg) from a brute-force scan of all vertex triples."""
    sign_of = {(i, j): s for i, j, s in g.edges}
    t_pos = t_neg = 0
    for a, b, c in itertools.combinations(range(1, g.n + 1), 3):
        if (a, b) in sign_of and (b, c) in sign_of and (a, c) in sign_of:
            if sign_of[(a, b)] * sign_of[(b, c)] * sign_of[(a, c)] > 0:
                t_pos += 1
            else:
                t_neg += 1
    return t_pos + t_neg, t_pos, t_neg


def _adjacency_sets(g: SignedGraph) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(1, g.n + 1)}
    for i, j, _ in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def oracle_components(g: SignedGraph) -> int:
    """Component count by BFS, ignoring signs."""
    adj = _adjacency_sets(g)
    seen: set[int] = set()
    count = 0
    for root in range(1, g.n + 1):
        if root in seen:
            continue
        count += 1
        queue = deque([root])
        seen.add(root)
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
    return count


def oracle_bipartite_components(g: SignedGraph) -> int:
    """Count of 2-colorable components by BFS coloring."""
    adj = _adjacency_sets(g)
    color: dict[int, int] = {}
    count = 0
    for root in range(1, g.n + 1):
        if root in color:
            continue
        color[root] = 0
        good = True
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in color:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    good = False
        if good:
            count += 1
    return count


def direct_unsigned_bounds(g: SignedGraph) -> dict[str, float | None]:
    """Unsigned-corollary formulas computed from scratch, None when guarded off.

    Everything (degrees, component counts, triangles) is recomputed here
    from the edge list so the values are independent of the package's
    delegation path.
    """
    import math

    deg = [0] * g.n
    for i, j, _ in g.edges:
        deg[i - 1] += 1
        deg[j - 1] += 1
    n, m = g.n, g.m
    s1 = sum(deg)
    s2 = sum(d * d for d in deg)
    s3 = sum(d ** 3 for d in deg)
    c = oracle_components(g)
    cb = oracle_bipartite_components(g)
    t, _, _ = oracle_triangles(g)
    sum_didj = sum(deg[i - 1] * deg[j - 1] for i, j, _ in g.edges)
    connected = c == 1

    def ub(r):
        mean = s1 / r
        rad = (s1 + s2) - (s1 + s2 + s1 * s1) / r + mean * mean
        return mean + math.sqrt(max(rad, 0.0))

    def tr1(r):
        if r < 2:
            return None
        return math.sqrt(abs(s1 * s1 - s2 - s1) / (r * (r - 1)))

    def tr2(r, tri):
        if r < 3:
            return None
        num = abs(2 * s3 + 6 * s2 - 3 * s2 * s1 + s1 ** 3 - 3 * s1 * s1 - 12 * tri)
        return (num / (r * (r - 1) * (r - 2))) ** (1.0 / 3.0)

    def tr3(r, tri):
        if r < 2:
            return None
        num = abs(s1 * s1 - 3 * s2 + s1 * s2 - s3 + 6 * tri)
        return (num / (r * (r - 1))) ** (1.0 / 3.0)

    return {
        "NEQ-SLB-1": 2 * s1 / n if connected else None,
        "NEQ-SLB-2": math.sqrt(4 * s2 / n) if connected else None,
        "NEQ-SLB-3": ((4 * s3 + 8 * sum_didj) / n) ** (1.0 / 3.0) if connected else None,
        "UB-L": ub(n - c) if m >= 1 else None,
        "UB-SL": ub(n - cb) if m >= 1 else None,
        "LB-TR-L-1": tr1(n - c),
        "LB-TR-L-2": tr2(n - c, t),
        "LB-TR-L-3": tr3(n - c, t),
        "LB-TR-SL-1": tr1(n - cb),
        "LB-TR-SL-2": tr2(n - cb, -t),
        "LB-TR-SL-3": tr3(n - cb, -t),
    }


def random_graphs(count: int, *, base_seed: int, n_max: int = 12, n_min: int = 2,
                  neg_prob: float = 0.5, connected: bool = False,
                  prob_lo: float = 0.2, prob_hi: float = 0.8) -> list[SignedGraph]:
    """Deterministic corpus of random graphs cycling size and edge density."""
    span = n_max - n_min + 1
    graphs = []
    for t in range(count):
        cfg = GeneratorConfig(
            n=n_min + (t % span),
            edge_prob=prob_lo + (prob_hi - prob_lo) * ((t % 7) / 6.0),
            neg_prob=neg_prob,
            seed=base_seed + t,
            require_connected=connected,
        )
        graphs.append(generate(cfg))
    return graphs
