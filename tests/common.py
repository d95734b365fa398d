"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the package's computation paths: matrices
are rebuilt from the edge list, triangles come from a full triple scan,
component counts from a fresh BFS, eigenvalues from a cyclic Jacobi
iteration (the package itself calls LAPACK), and parsed graphs from a
straightforward line-by-line parser.  ``oracle_generate`` and
``oracle_verify`` are the scalar generator and the trial-by-trial
verification loop the package ran before it batched them, and
``oracle_evaluation`` the scalar catalog rows the batch catalog replaced.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import deque
from types import SimpleNamespace

import numpy as np

from dataclasses import replace

from sglap import (
    RANK_TOL,
    BalanceInfo,
    BoundResult,
    GenerationError,
    GeneratorConfig,
    GraphFormatError,
    InternalInconsistencyError,
    SignedGraph,
    SplitMix64,
    VerificationReport,
    Violation,
    eigenvalues,
    evaluate_all,
    generate,
    laplacian,
    laplacian_rank,
    power_traces,
    sandwich_violations,
    serialize_signed_graph,
    switch,
    trace_moment,
)
from sglap.harness import CONNECTIVITY_CAP

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


_ORACLE_HEADER = re.compile(r"n [0-9]{1,7}\n")
_ORACLE_NOT_EDGE_LINE = re.compile(r"^(?![0-9]{1,7} [0-9]{1,7} [+-]\n|\Z)", re.MULTILINE)


def oracle_is_serialized(text: str) -> bool:
    """Whether ``text`` is in the form ``serialize_signed_graph`` writes, up
    to the order of the edge lines and of the two indices on a line, by the
    regular expressions the parser used before its numpy check: a header
    ``n N``, then ``i j +`` or ``i j -`` lines, each ending in a newline,
    every number 1 to 7 ASCII digits.  The lines are checked by searching
    for a line start that begins no such line and does not end the text."""
    header = _ORACLE_HEADER.match(text)
    return bool(header) and not _ORACLE_NOT_EDGE_LINE.search(text, header.end())


def oracle_cover_reading(count: int, i: np.ndarray, j: np.ndarray,
                         negative: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(root, balanced, certificate)`` per vertex of a graph on vertices
    0..count-1 with edges (i, j), ``negative`` where an edge is negative, by
    the signed double cover the package labelled before its labels packed
    the two sheets into a parity bit.

    Vertex v becomes nodes 2v (its + node) and 2v + 1 (its - node); a +
    edge joins like nodes and a - edge unlike ones.  Cover components are
    labelled by hook-and-shortcut rounds that leave each node on the
    smallest node of its component.  From plus = label[2v] and minus =
    label[2v + 1]: the root min(plus, minus) >> 1, balanced iff plus !=
    minus, and the certificate 1 - 2 * (plus & 1)."""
    plus_i = (2 * i).astype(np.int32)
    to_j = (2 * j).astype(np.int32)
    to_j += negative
    src = np.concatenate((plus_i, plus_i + 1))
    dst = np.concatenate((to_j, to_j ^ 1))
    label = np.arange(2 * count, dtype=np.int32)
    while not np.array_equal(at_src := label.take(src), at_dst := label.take(dst)):
        np.minimum.at(label, np.maximum(at_src, at_dst), np.minimum(at_src, at_dst))
        while not np.array_equal(up := label.take(label), label):
            label = up
    plus, minus = label[0::2], label[1::2]
    return np.minimum(plus, minus) >> 1, plus != minus, 1 - 2 * (plus & 1)


def oracle_graph_error(n, edges) -> str | None:
    """The ``ValueError`` message ``SignedGraph(n, edges)`` must raise, or
    None: n and every edge entry must be exact ints (not bool, not numpy),
    and every edge is checked in iteration order, entry types before range
    before sign before a repeated pair, with the pairs seen so far kept in a
    set."""
    if type(n) is not int or n < 1:
        return f"vertex count must be a positive integer, got {n!r}"
    pairs = set()
    for e in edges:
        i, j, s = e
        if any(type(x) is not int for x in e):
            return f"edge {e} has an entry that is not an int"
        if not (1 <= i < j <= n):
            return f"edge {e} out of range for n={n} (need 1 <= i < j <= n)"
        if s not in (1, -1):
            return f"edge {e} has sign {s!r}, expected +1 or -1"
        if (i, j) in pairs:
            return f"duplicate edge between {i} and {j}"
        pairs.add((i, j))
    return None


def oracle_switching_equivalent(g1: SignedGraph, g2: SignedGraph):
    """``(equivalent, witness)`` by the set-based search the package used
    before its edge arrays: each of g1's edges is looked up in g2's edge set
    (a missing pair means different underlying graphs), product signs are
    listed per vertex, and a breadth-first search from each smallest
    unvisited vertex, with theta = +1 there, propagates them.  The witness is
    None unless every component is balanced."""
    if g1.n != g2.n or g1.m != g2.m:
        return False, None
    product: list[list[tuple[int, int]]] = [[] for _ in range(g1.n + 1)]
    for e in g1.edges:
        i, j, s = e
        if e in g2.edges:
            p = 1
        elif (i, j, -s) in g2.edges:
            p = -1
        else:
            return False, None
        product[i].append((j, p))
        product[j].append((i, p))
    seen = [False] * (g1.n + 1)
    theta = [1] * (g1.n + 1)
    for root in range(1, g1.n + 1):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, p in product[u]:
                if not seen[v]:
                    seen[v] = True
                    theta[v] = p * theta[u]
                    queue.append(v)
                elif theta[v] != p * theta[u]:
                    return False, None
    return True, tuple(theta[1:])


def oracle_balance_info(g: SignedGraph) -> BalanceInfo:
    """``balance_info`` by the search the package used before it read edge
    arrays: ascending ``(neighbor, sign)`` lists built from ``sorted(g.edges)``,
    then a breadth-first search from each smallest unlabelled vertex, with
    theta = +1 there.  A newly reached vertex v gets sign(uv) * theta(u); any
    other edge whose sign is not theta(u) * theta(v) marks its component
    unbalanced."""
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(g.n + 1)]
    for i, j, s in sorted(g.edges):
        nbrs[i].append((j, s))
        nbrs[j].append((i, s))
    labels = [-1] * (g.n + 1)
    theta = [1] * (g.n + 1)
    balanced: list[bool] = []
    for root in range(1, g.n + 1):
        if labels[root] >= 0:
            continue
        comp = len(balanced)
        labels[root] = comp
        ok = True
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, s in nbrs[u]:
                if labels[v] < 0:
                    labels[v] = comp
                    theta[v] = s * theta[u]
                    queue.append(v)
                elif theta[v] != s * theta[u]:
                    ok = False
        balanced.append(ok)
    return BalanceInfo(component_count=len(balanced), balanced_count=sum(balanced),
                       component_labels=tuple(labels[1:]), component_balanced=tuple(balanced),
                       certificate=tuple(theta[1:]))


def oracle_laplacian(g: SignedGraph) -> np.ndarray:
    """Integer Laplacian built directly from the edge list."""
    m = np.zeros((g.n, g.n), dtype=np.int64)
    for i, j, s in g.edges:
        m[i - 1, j - 1] = -s
        m[j - 1, i - 1] = -s
        m[i - 1, i - 1] += 1
        m[j - 1, j - 1] += 1
    return m


def one_sign_subgraph(g: SignedGraph, sign: int) -> SignedGraph:
    """Spanning subgraph of ``g`` keeping only the edges of ``sign``."""
    return SignedGraph(g.n, frozenset(e for e in g.edges if e[2] == sign))


def laplacian_parts(lap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L+, L-), the Laplacians of the one-sign subgraphs, read off a signed
    Laplacian L: L+ = diag(rowsum(L < 0)) - (L < 0) and L- = L - L+."""
    below = (lap < 0).astype(np.int64)
    pos = np.diag(below.sum(axis=1)) - below
    return pos, lap - pos


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


def oracle_generate(cfg: GeneratorConfig) -> SignedGraph:
    """``generate`` as a scalar loop over the documented draw order: one
    splitmix64 draw per vertex pair in lexicographic order, a sign draw
    right after each accepted pair, and with require_connected the scan
    repeated on the same stream until the graph is connected."""
    rng = SplitMix64(cfg.seed)
    attempts = CONNECTIVITY_CAP if cfg.require_connected else 1
    for _ in range(attempts):
        edges = []
        for i in range(1, cfg.n):
            for j in range(i + 1, cfg.n + 1):
                if rng.next_float() < cfg.edge_prob:
                    sign = -1 if rng.next_float() < cfg.neg_prob else 1
                    edges.append((i, j, sign))
        g = SignedGraph(cfg.n, frozenset(edges))
        if not cfg.require_connected or oracle_components(g) == 1:
            return g
    raise GenerationError(attempts)


def oracle_verify(cfg: GeneratorConfig, trials: int, tol: float) -> VerificationReport:
    """``verify`` trial by trial, each graph on its own: its bounds through
    ``evaluate_all``, its traces through ``trace_moment`` on its Laplacian,
    its rank through ``laplacian_rank``, and its switched spectrum through
    ``switch`` and ``eigenvalues``."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    failures, identity = [], []
    seed_stream = SplitMix64(cfg.seed)
    for trial in range(trials):
        g_seed = seed_stream.next_u64()
        th_seed = seed_stream.next_u64()
        g = oracle_generate(replace(cfg, seed=g_seed))
        try:
            ev = evaluate_all(g, tol=tol, check=False)
        except InternalInconsistencyError as exc:
            raise InternalInconsistencyError(f"trial={trial} seed={g_seed}: {exc}") from exc
        lmax = ev.lambda_max
        bad = [(r.bound_id, r.value, lmax, mag)
               for r, mag in sandwich_violations(ev.results, lmax, tol)]
        bad_identity = []
        lap = laplacian(g)
        for k, want in enumerate(power_traces(g), start=1):
            got = trace_moment(lap, k)
            if got != want:
                bad_identity.append((f"trace-{k}", float(got), float(want), float(abs(got - want))))
        num_rank = sum(1 for v in ev.spectrum if v > RANK_TOL)
        want_rank = laplacian_rank(g)
        if num_rank != want_rank:
            bad_identity.append(("rank", float(num_rank), float(want_rank),
                                 float(abs(num_rank - want_rank))))
        rng = SplitMix64(th_seed)
        th = tuple(-1 if rng.next_float() < 0.5 else 1 for _ in range(g.n))
        switched = eigenvalues(laplacian(switch(g, th)))
        diff = max(abs(a - b) for a, b in zip(ev.spectrum, switched))
        if diff > tol:
            bad_identity.append(("switching", diff, 0.0, diff))
        if bad or bad_identity:
            text = serialize_signed_graph(g)
            failures += [Violation(trial, g_seed, text, *v) for v in bad]
            identity += [Violation(trial, g_seed, text, *v) for v in bad_identity]
    failures.sort(key=lambda v: (v.trial, v.check_id))
    identity.sort(key=lambda v: (v.trial, v.check_id))
    return VerificationReport(trials, tuple(failures), tuple(identity))


# The signed catalog as scalar formulas on one graph's facts, in catalog
# order: (bound_id, direction, ((hypothesis, guard reason), ...), formula).
# Python int and float arithmetic throughout: math.sqrt, int / int and
# float ** (1/3).
_CONNECTED = (lambda f: f.connected, "graph not connected")
_AN_EDGE = (lambda f: f.m > 0, "at least one edge required")
_ORACLE_ROWS = (
    ("LB-NET-1", "lower", (_CONNECTED,), lambda f: f.net1 / f.n),
    ("LB-NET-2", "lower", (_CONNECTED,), lambda f: math.sqrt(f.net2 / f.n)),
    ("LB-NET-3", "lower", (_CONNECTED,),
     lambda f: (_oracle_nonnegative(f.net3, "cubic moment", " on a PSD matrix") / f.n)
     ** (1.0 / 3.0)),
    ("UB-WANG-EDGE", "upper", (_CONNECTED, _AN_EDGE),
     lambda f: (2.0 + math.sqrt(f.wang) if f.wang_bad is None
                else _oracle_nonnegative(f.wang_bad, "inner term"))),
    ("UB-WANG-GLOBAL", "upper", (_CONNECTED, (lambda f: f.n > 2, "order n <= 2")),
     lambda f: 2.0 + math.sqrt(_oracle_nonnegative(
         f.s2 - 2 * f.m - (f.m - 1) * f.edge_deg_min + (f.edge_deg_min - 1) * f.edge_deg_max))),
    ("UB-RANK", "upper", (_AN_EDGE,),
     lambda f: (f.s1 + math.sqrt(_oracle_nonnegative(
         (f.rank - 1) * (f.rank * (f.s1 + f.s2) - f.s1 * f.s1)))) / f.rank),
    ("LB-TR-1", "lower", ((lambda f: f.rank >= 2, "b > n-2"),),
     lambda f: math.sqrt(abs(f.p1 * f.p1 - f.p2) / (f.rank * (f.rank - 1)))),
    ("LB-TR-2", "lower", ((lambda f: f.rank >= 3, "b > n-3"),),
     lambda f: (abs(2 * f.p3 - 3 * f.p2 * f.p1 + f.p1 ** 3)
                / (f.rank * (f.rank - 1) * (f.rank - 2))) ** (1.0 / 3.0)),
    ("LB-TR-3", "lower", ((lambda f: f.rank >= 2, "rank n-b < 2"),),
     lambda f: (abs(f.p1 * f.p2 - f.p3) / (f.rank * (f.rank - 1))) ** (1.0 / 3.0)),
    ("UB-ALLNEG", "upper", (_CONNECTED,), lambda f: f.top_abs),
    ("LB-INTERLACE", "lower", (), lambda f: max(f.top_pos, f.top_neg)),
    ("KB-1", "upper", (_CONNECTED, _AN_EDGE), lambda f: f.kb1),
    ("KB-2", "upper", (_CONNECTED, _AN_EDGE),
     lambda f: (2.0 + math.sqrt(f.kb2) if f.kb2_bad is None else _oracle_nonnegative(
         f.kb2_bad[0], where=" on edge {},{}".format(*f.kb2_bad[1:])))),
    ("KB-3", "upper", (_CONNECTED, _AN_EDGE), lambda f: f.kb3),
    ("KB-4", "upper", (_CONNECTED, _AN_EDGE), lambda f: f.kb4),
    ("KB-5", "lower", (_CONNECTED, _AN_EDGE), lambda f: f.max_deg + 1.0),
)


class _OracleNegative(Exception):
    pass


def _oracle_nonnegative(x, what="radicand", where=""):
    if x < 0:
        raise _OracleNegative(f"{what} {x} < 0{where}")
    return x


def oracle_evaluation(f) -> tuple[BoundResult, ...]:
    """The signed catalog on ``f``, a batch of one of ``bounds._batch_facts``,
    row by row with the scalar formulas the array rows replaced, on its
    entries as Python ints and floats.  A negative radicand or moment
    raises ``InternalInconsistencyError`` with the catalog's message."""
    (one,) = zip(*(column.tolist() for key, column in vars(f).items() if key != "spectra"))
    g = SimpleNamespace(**dict(zip([key for key in vars(f) if key != "spectra"], one)))
    g.wang_bad = g.wang_bad or None
    g.kb2_bad = (g.kb2_bad, *g.kb2_at) if g.kb2_bad else None
    results = []
    for bound_id, direction, needs, formula in _ORACLE_ROWS:
        reason = next((reason for holds, reason in needs if not holds(g)), None)
        if reason is not None:
            results.append(BoundResult(bound_id, direction, False, reason))
            continue
        try:
            value = formula(g)
        except _OracleNegative as err:
            raise InternalInconsistencyError(f"{bound_id}: {err}") from None
        results.append(BoundResult(bound_id, direction, True, "", float(value)))
    return tuple(results)
