"""Eigenvalue bounds for the signed Laplacian spectral radius.

Every bound returns a :class:`BoundResult` whose ``applicable`` flag encodes
its hypothesis (connectedness, edge count, rank conditions); inapplicable
results carry a guard reason instead of a value.  The catalogs at the bottom
list each bound id once; the ids are a compatibility surface used in CLI
output and CSV headers.

Each bound reads the statistics :func:`_batch_facts` computes for a whole
batch of graphs in one pass; called on a graph, it reads that graph's
batch of one.  Degree sums are kept in exact integer arithmetic as long as
possible so the values differ from their defining formulas only by the
final float division, square root, or cube root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .balance import _balance_counts
from .sgraph import (SignedGraph, _degree_stats, _exact_dtype, _segments, _triangle_counts,
                     _Union, cached_on_graph)
from .spectra import _batch_spectra, _power_traces, sign_all

__all__ = [
    "DEFAULT_TOL",
    "InternalInconsistencyError",
    "BoundResult",
    "BoundEvaluation",
    "SIGNED_CATALOG",
    "UNSIGNED_CATALOG",
    "lb_net_mean",
    "lb_net_sq",
    "lb_net_cubic",
    "ub_rank_trace",
    "lb_trace_sq",
    "lb_trace_cubic_a",
    "lb_trace_cubic_b",
    "ub_wang_edge",
    "ub_wang_global",
    "ub_all_negative",
    "lb_interlacing",
    "classic_bounds",
    "unsigned_corollaries",
    "evaluate_all",
    "sandwich_violations",
]

LOWER = "lower"
UPPER = "upper"

DEFAULT_TOL = 1e-9

_NOT_CONNECTED = "graph not connected"
_NO_EDGE = "at least one edge required"


class InternalInconsistencyError(RuntimeError):
    """A quantity violated an identity the theory guarantees; indicates a bug."""


@dataclass(frozen=True, slots=True)
class BoundResult:
    """One bound evaluation: id, direction, and either a value or a guard reason."""

    bound_id: str
    direction: str
    applicable: bool
    guard_reason: str = ""
    value: float | None = None

    def __post_init__(self):
        if self.direction not in (LOWER, UPPER):
            raise ValueError(f"direction must be 'lower' or 'upper', got {self.direction!r}")
        if self.applicable and self.value is None:
            raise ValueError(f"{self.bound_id}: applicable result needs a value")
        if not self.applicable and (self.value is not None or not self.guard_reason):
            raise ValueError(f"{self.bound_id}: inapplicable result needs a guard reason and no value")


def _value(bound_id: str, direction: str, v: float) -> BoundResult:
    return BoundResult(bound_id, direction, True, "", float(v))


def _na(bound_id: str, direction: str, reason: str) -> BoundResult:
    return BoundResult(bound_id, direction, False, reason, None)


class _Facts(SimpleNamespace):
    """One graph's entries of :func:`_batch_facts`, as attributes."""


def _facts(g) -> _Facts:
    """The facts of ``g``: a graph's batch of one, memoised on it, or
    ``g`` itself when a batch already computed them."""
    return g if isinstance(g, _Facts) else _graph_facts(g)


@cached_on_graph
def _graph_facts(g: SignedGraph) -> _Facts:
    return _batch_facts(_Union.of([g]))[0]


def _batch_facts(u: _Union, switched: np.ndarray | None = None) -> list[_Facts]:
    """Everything the catalog reads, for every graph of the union ``u``.

    Per graph: ``n``, ``m``, ``connected``, ``rank`` (n minus balanced
    components), the :func:`~sglap.sgraph._degree_stats` sums, ``t_net``,
    ``traces`` (:func:`~sglap.spectra.power_traces`), the
    :func:`~sglap.spectra._batch_spectra` entries (``switched`` is passed
    on), and the per-edge and per-vertex maxima of UB-WANG-EDGE and
    KB-1..KB-4, with ``wang_bad`` and ``kb2_bad`` naming the first edge
    whose inner term or radicand is negative, else None.  Each edge term is
    computed as the scalar formula would, operation by operation, on exact
    integers, so every value is bit-identical to it.
    """
    d, _, nds, facts = _degree_stats(u)
    t_pos, t_neg = _triangle_counts(u)
    components, balanced = _balance_counts(u)
    n, m = u.n.tolist(), np.diff(u.eoff).tolist()
    facts.update(n=n, m=m, connected=(components == 1).tolist(), rank=(u.n - balanced).tolist(),
                 t_net=[p - q for p, q in zip(t_pos, t_neg)])
    facts["traces"] = list(map(_power_traces, facts["s1"], facts["s2"], facts["s3"],
                               facts["t_net"]))
    di, dj, si, sj = d[u.i], d[u.j], nds[u.i], nds[u.j]
    # d * nds <= max_deg^3 < 2^60; the UB-WANG-EDGE numerator, at most
    # 4 max_deg^4, is divided as a float, so past 2^53 it is a Python int.
    inner = di * si + dj * sj - 2 * di * dj
    wide = _exact_dtype(4 * int(d.max()) ** 4, 2 ** 53)
    rad = di * di + si - 4 * di + dj * dj + sj - 4 * dj + 4
    facts["wang"], facts["kb1"], facts["kb4"] = _segments(np.maximum, np.stack((
        (di + dj - 2).astype(wide) * inner / (di * dj).astype(wide),
        (di * di + si + dj * dj + sj) / (di + dj),
        # si * 1.0 * sj rounds the exact product once, as float(si * sj) does.
        (di + dj + np.sqrt((di - dj) ** 2 + 4 * np.sqrt(si * 1.0 * sj))) / 2.0)), u.eoff)
    facts["kb2"] = _segments(np.maximum, rad, u.eoff)
    facts["kb3"] = np.maximum.reduceat(d + np.sqrt(nds), u.voff[:-1]).tolist()
    facts["wang_bad"], facts["kb2_bad"] = [None] * len(n), [None] * len(n)
    for e in np.flatnonzero(inner < 0)[::-1].tolist():  # the first edge of a graph wins
        facts["wang_bad"][u.egraph[e]] = int(inner[e])
    for e in np.flatnonzero(rad < 0)[::-1].tolist():
        facts["kb2_bad"][u.egraph[e]] = (int(rad[e]), int(u.li[e]) + 1, int(u.lj[e]) + 1)
    facts.update(_batch_spectra(u, switched))
    return [_Facts(**dict(zip(facts, row))) for row in zip(*facts.values())]


# -- sign-dependent lower bounds -------------------------------------------

def lb_net_mean(g: SignedGraph) -> BoundResult:
    """LB-NET-1: (2/n) * sum of negative degrees, for connected graphs."""
    f = _facts(g)
    if not f.connected:
        return _na("LB-NET-1", LOWER, _NOT_CONNECTED)
    return _value("LB-NET-1", LOWER, f.net1 / f.n)


def lb_net_sq(g: SignedGraph) -> BoundResult:
    """LB-NET-2: sqrt((4/n) * sum of squared negative degrees), connected graphs."""
    f = _facts(g)
    if not f.connected:
        return _na("LB-NET-2", LOWER, _NOT_CONNECTED)
    return _value("LB-NET-2", LOWER, math.sqrt(f.net2 / f.n))


def lb_net_cubic(g: SignedGraph) -> BoundResult:
    """LB-NET-3: cube root of (x^T L^3 x)/n at x = all-ones, connected graphs.

    The inner moment is nonnegative because L^3 is positive semidefinite;
    a negative value is asserted as a bug, never clamped.
    """
    f = _facts(g)
    if not f.connected:
        return _na("LB-NET-3", LOWER, _NOT_CONNECTED)
    if f.net3 < 0:
        raise InternalInconsistencyError(f"LB-NET-3: cubic moment {f.net3} < 0 on a PSD matrix")
    return _value("LB-NET-3", LOWER, (f.net3 / f.n) ** (1.0 / 3.0))


# -- rank / trace bounds ----------------------------------------------------

def ub_rank_trace(g: SignedGraph) -> BoundResult:
    """UB-RANK: mean-plus-deviation bound over the nonzero spectrum.

    With r = rank(L) = n - (balanced components), s1/r is the mean nonzero
    eigenvalue and the radicand is (r-1) times its variance:
        s1/r + sqrt((s1+s2) - (s1+s2+s1^2)/r + (s1/r)^2).
    Scaled by r^2 the radicand is the exact integer
        N = (r-1)(r(s1+s2) - s1^2),
    so the value is (s1 + sqrt(N))/r with no cancellation; a negative N is
    asserted as a bug, never clamped.  Needs at least one edge (which
    forces r >= 1).
    """
    f = _facts(g)
    if f.m == 0:
        return _na("UB-RANK", UPPER, _NO_EDGE)
    r, s1, s2 = f.rank, f.s1, f.s2
    radicand = (r - 1) * (r * (s1 + s2) - s1 * s1)
    if radicand < 0:
        raise InternalInconsistencyError(f"UB-RANK: radicand {radicand} < 0")
    return _value("UB-RANK", UPPER, (s1 + math.sqrt(radicand)) / r)


def lb_trace_sq(g: SignedGraph) -> BoundResult:
    """LB-TR-1: sqrt(|p1^2 - p2| / (r(r-1))) with p_k = tr(L^k), needs rank
    r = n - b >= 2.  The absolute value keeps the bound valid when the signed
    numerator goes negative."""
    f = _facts(g)
    r = f.rank
    if r < 2:
        return _na("LB-TR-1", LOWER, "b > n-2")
    p1, p2, _ = f.traces
    return _value("LB-TR-1", LOWER, math.sqrt(abs(p1 * p1 - p2) / (r * (r - 1))))


def lb_trace_cubic_a(g: SignedGraph) -> BoundResult:
    """LB-TR-2: cube root of |2 p3 - 3 p2 p1 + p1^3| / (r(r-1)(r-2)) with
    p_k = tr(L^k), needs rank r = n - b >= 3."""
    f = _facts(g)
    r = f.rank
    if r < 3:
        return _na("LB-TR-2", LOWER, "b > n-3")
    p1, p2, p3 = f.traces
    num = abs(2 * p3 - 3 * p2 * p1 + p1 ** 3)
    return _value("LB-TR-2", LOWER, (num / (r * (r - 1) * (r - 2))) ** (1.0 / 3.0))


def lb_trace_cubic_b(g: SignedGraph) -> BoundResult:
    """LB-TR-3: cube root of |p1 p2 - p3| / (r(r-1)) with p_k = tr(L^k), rank
    r >= 2.  The guard is rank n-b >= 2, the condition the r(r-1) denominator
    needs; the stated balanced-component condition would make the bound
    near-vacuous.
    """
    f = _facts(g)
    r = f.rank
    if r < 2:
        return _na("LB-TR-3", LOWER, "rank n-b < 2")
    p1, p2, p3 = f.traces
    return _value("LB-TR-3", LOWER, (abs(p1 * p2 - p3) / (r * (r - 1))) ** (1.0 / 3.0))


# -- sign-independent upper bounds ------------------------------------------

def ub_wang_edge(g: SignedGraph) -> BoundResult:
    """UB-WANG-EDGE: edge scan over degrees and average 2-degrees.

    2 + max over edges ij of
        sqrt((d_i + d_j - 2)(d_i^2 m_i + d_j^2 m_j - 2 d_i d_j) / (d_i d_j)),
    where d^2 * m is computed as degree times neighbor-degree sum (an exact
    integer).  Needs a connected graph with an edge.
    """
    f = _facts(g)
    if not f.connected:
        return _na("UB-WANG-EDGE", UPPER, _NOT_CONNECTED)
    if f.m == 0:
        return _na("UB-WANG-EDGE", UPPER, _NO_EDGE)
    if f.wang_bad is not None:
        raise InternalInconsistencyError(f"UB-WANG-EDGE: inner term {f.wang_bad} < 0")
    return _value("UB-WANG-EDGE", UPPER, 2.0 + math.sqrt(f.wang))


def ub_wang_global(g: SignedGraph) -> BoundResult:
    """UB-WANG-GLOBAL: 2 + sqrt(s2 - 2m - (m-1)*edmin + (edmin-1)*edmax).

    edmin/edmax are the extremes of d_i + d_j - 2 over edges.  Needs a
    connected graph of order more than 2.
    """
    f = _facts(g)
    if not f.connected:
        return _na("UB-WANG-GLOBAL", UPPER, _NOT_CONNECTED)
    if f.n <= 2:
        return _na("UB-WANG-GLOBAL", UPPER, "order n <= 2")
    dmin, dmax = f.edge_deg_min, f.edge_deg_max
    radicand = f.s2 - 2 * f.m - (f.m - 1) * dmin + (dmin - 1) * dmax
    if radicand < 0:
        raise InternalInconsistencyError(f"UB-WANG-GLOBAL: radicand {radicand} < 0")
    return _value("UB-WANG-GLOBAL", UPPER, 2.0 + math.sqrt(radicand))


def ub_all_negative(g: SignedGraph) -> BoundResult:
    """UB-ALLNEG: spectral radius of the all-negative signing.

    Its Laplacian D + |A| is |L(g)| entrywise, so no graph is rebuilt.
    Tight exactly when the graph is switching equivalent to its all-negative
    signing.  Needs a connected graph.
    """
    f = _facts(g)
    if not f.connected:
        return _na("UB-ALLNEG", UPPER, _NOT_CONNECTED)
    return _value("UB-ALLNEG", UPPER, f.top_abs)


def lb_interlacing(g: SignedGraph) -> BoundResult:
    """LB-INTERLACE: larger spectral radius of the two one-sign subgraphs,
    whose Laplacians L+ and L- = L(g) - L+ are read off L(g)."""
    f = _facts(g)
    return _value("LB-INTERLACE", LOWER, max(f.top_pos, f.top_neg))


# -- previously known sign-independent bounds --------------------------------

def classic_bounds(g: SignedGraph) -> tuple[BoundResult, ...]:
    """KB-1..KB-4 (upper) and KB-5 (lower), all on connected graphs with an edge.

    All five depend only on degrees and average 2-degrees; products like
    d_i * m_i are evaluated as neighbor-degree sums to stay in integers.
    KB-1, KB-2 and KB-4 are maxima over edges ij of
        (d_i^2 + nds_i + d_j^2 + nds_j) / (d_i + d_j),
        2 + sqrt(d_i^2 + nds_i - 4 d_i + d_j^2 + nds_j - 4 d_j + 4),
        (d_i + d_j + sqrt((d_i - d_j)^2 + 4 sqrt(nds_i nds_j))) / 2,
    KB-3 the maximum over vertices of d + sqrt(nds), and KB-5 max_deg + 1.
    """
    ids = (("KB-1", UPPER), ("KB-2", UPPER), ("KB-3", UPPER), ("KB-4", UPPER), ("KB-5", LOWER))
    f = _facts(g)
    if not f.connected:
        return tuple(_na(b, d, _NOT_CONNECTED) for b, d in ids)
    if f.m == 0:
        return tuple(_na(b, d, _NO_EDGE) for b, d in ids)
    if f.kb2_bad is not None:
        raise InternalInconsistencyError("KB-2: radicand {} < 0 on edge {},{}".format(*f.kb2_bad))
    return (
        _value("KB-1", UPPER, f.kb1),
        _value("KB-2", UPPER, 2.0 + math.sqrt(f.kb2)),
        _value("KB-3", UPPER, f.kb3),
        _value("KB-4", UPPER, f.kb4),
        _value("KB-5", LOWER, f.max_deg + 1.0),
    )


# -- unsigned-graph corollaries ----------------------------------------------

def unsigned_corollaries(g: SignedGraph) -> tuple[BoundResult, ...]:
    """Bounds for the Laplacian and signless Laplacian of the underlying graph.

    Input signs are ignored.  Each ``UNSIGNED_CATALOG`` entry, in order,
    evaluates its signed bound with every edge signed +1 (Laplacian) or -1
    (signless Laplacian), where the balanced-component count becomes the
    component count c (all-positive) or the bipartite component count
    (all-negative), and signed triangles collapse to +-t.  Results come in
    catalog order and carry the catalog's ids.  Both signings are
    evaluated as one batch (:func:`_batch_facts`).
    """
    positive, negative = _batch_facts(_Union.of([sign_all(g, 1), sign_all(g, -1)]))
    signings = {1: positive, -1: negative}
    return tuple(
        replace(signed_bound(signings[sign]), bound_id=bound_id)
        for bound_id, sign, signed_bound in UNSIGNED_CATALOG
    )


# -- full evaluation ----------------------------------------------------------

@dataclass(frozen=True)
class BoundEvaluation:
    """Every signed-catalog bound on one graph plus its exact spectrum,
    ascending."""

    results: tuple[BoundResult, ...]
    spectrum: tuple[float, ...]

    @property
    def lambda_max(self) -> float:
        return self.spectrum[-1]


def sandwich_violations(
    results, lambda_max: float, tol: float = DEFAULT_TOL
) -> tuple[tuple[BoundResult, float], ...]:
    """Applicable bounds that fail lower <= lambda_max <= upper within tol.

    Returns (result, overshoot) pairs; empty means the sandwich holds.  A
    negative tol tightens the check; a NaN or infinite one raises ValueError,
    since NaN fails every comparison and +inf passes every one.
    """
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol!r}")
    bad = []
    for r in results:
        if not r.applicable:
            continue
        if r.direction == LOWER and r.value > lambda_max + tol:
            bad.append((r, r.value - lambda_max))
        elif r.direction == UPPER and r.value < lambda_max - tol:
            bad.append((r, lambda_max - r.value))
    return tuple(bad)


def evaluate_all(g: SignedGraph, tol: float = DEFAULT_TOL, check: bool = True) -> BoundEvaluation:
    """Evaluate the whole signed bound catalog plus the exact spectral radius.

    ``g`` is evaluated as a batch of one (:func:`_batch_facts`).  With
    ``check`` on (the default), a sandwich violation raises
    InternalInconsistencyError since the theory rules it out; pass
    check=False to collect violations as data instead.
    """
    ev = _evaluation(_facts(g))
    if check:
        bad = sandwich_violations(ev.results, ev.lambda_max, tol)
        if bad:
            detail = "; ".join(f"{r.bound_id}={r.value!r} off by {mag:.3e}" for r, mag in bad)
            raise InternalInconsistencyError(f"bound sandwich violated: {detail}")
    return ev


def _evaluation(f: _Facts) -> BoundEvaluation:
    """The catalog on one graph's facts, in ``SIGNED_CATALOG`` order."""
    results = (
        lb_net_mean(f),
        lb_net_sq(f),
        lb_net_cubic(f),
        ub_wang_edge(f),
        ub_wang_global(f),
        ub_rank_trace(f),
        lb_trace_sq(f),
        lb_trace_cubic_a(f),
        lb_trace_cubic_b(f),
        ub_all_negative(f),
        lb_interlacing(f),
        *classic_bounds(f),
    )
    return BoundEvaluation(results=results, spectrum=f.spectrum)


# Signed-catalog ids in evaluation order, which is also the report's column
# order.
SIGNED_CATALOG: tuple[str, ...] = (
    "LB-NET-1", "LB-NET-2", "LB-NET-3", "UB-WANG-EDGE", "UB-WANG-GLOBAL", "UB-RANK",
    "LB-TR-1", "LB-TR-2", "LB-TR-3", "UB-ALLNEG", "LB-INTERLACE",
    "KB-1", "KB-2", "KB-3", "KB-4", "KB-5",
)

# (bound_id, sign, signed_bound): the signed bound evaluated with every edge
# signed ``sign``, +1 for the Laplacian of the underlying graph and -1 for
# its signless Laplacian.
UNSIGNED_CATALOG: tuple[tuple[str, int, Callable[[SignedGraph], BoundResult]], ...] = (
    ("NEQ-SLB-1", -1, lb_net_mean),
    ("NEQ-SLB-2", -1, lb_net_sq),
    ("NEQ-SLB-3", -1, lb_net_cubic),
    ("UB-L", 1, ub_rank_trace),
    ("UB-SL", -1, ub_rank_trace),
    ("LB-TR-L-1", 1, lb_trace_sq),
    ("LB-TR-L-2", 1, lb_trace_cubic_a),
    ("LB-TR-L-3", 1, lb_trace_cubic_b),
    ("LB-TR-SL-1", -1, lb_trace_sq),
    ("LB-TR-SL-2", -1, lb_trace_cubic_a),
    ("LB-TR-SL-3", -1, lb_trace_cubic_b),
)
