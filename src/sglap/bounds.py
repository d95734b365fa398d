"""Eigenvalue bounds for the signed Laplacian spectral radius.

Every bound returns a :class:`BoundResult` whose ``applicable`` flag encodes
its hypothesis (connectedness, edge count, rank conditions); inapplicable
results carry a guard reason instead of a value.  The catalogs at the bottom
list each bound id once; the ids are a compatibility surface used in CLI
output and CSV headers.

Degree sums are kept in exact integer arithmetic as long as possible so the
values differ from their defining formulas only by the final float division,
square root, or cube root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .balance import is_connected, laplacian_rank
from .sgraph import SignedGraph, degree_profile, edge_arrays
from .spectra import eigenvalues, laplacian, power_traces, rayleigh_moment, sign_all

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


@dataclass(frozen=True)
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


# -- sign-dependent lower bounds -------------------------------------------

def lb_net_mean(g: SignedGraph) -> BoundResult:
    """LB-NET-1: (2/n) * sum of negative degrees, for connected graphs."""
    if not is_connected(g):
        return _na("LB-NET-1", LOWER, _NOT_CONNECTED)
    return _value("LB-NET-1", LOWER, rayleigh_moment(g, 1) / g.n)


def lb_net_sq(g: SignedGraph) -> BoundResult:
    """LB-NET-2: sqrt((4/n) * sum of squared negative degrees), connected graphs."""
    if not is_connected(g):
        return _na("LB-NET-2", LOWER, _NOT_CONNECTED)
    return _value("LB-NET-2", LOWER, math.sqrt(rayleigh_moment(g, 2) / g.n))


def lb_net_cubic(g: SignedGraph) -> BoundResult:
    """LB-NET-3: cube root of (x^T L^3 x)/n at x = all-ones, connected graphs.

    The inner moment is nonnegative because L^3 is positive semidefinite;
    a negative value is asserted as a bug, never clamped.
    """
    if not is_connected(g):
        return _na("LB-NET-3", LOWER, _NOT_CONNECTED)
    n3 = rayleigh_moment(g, 3)
    if n3 < 0:
        raise InternalInconsistencyError(f"LB-NET-3: cubic moment {n3} < 0 on a PSD matrix")
    return _value("LB-NET-3", LOWER, (n3 / g.n) ** (1.0 / 3.0))


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
    if g.m == 0:
        return _na("UB-RANK", UPPER, _NO_EDGE)
    prof = degree_profile(g)
    r = laplacian_rank(g)
    s1, s2 = prof.s1, prof.s2
    radicand = (r - 1) * (r * (s1 + s2) - s1 * s1)
    if radicand < 0:
        raise InternalInconsistencyError(f"UB-RANK: radicand {radicand} < 0")
    return _value("UB-RANK", UPPER, (s1 + math.sqrt(radicand)) / r)


def lb_trace_sq(g: SignedGraph) -> BoundResult:
    """LB-TR-1: sqrt(|p1^2 - p2| / (r(r-1))) with p_k = tr(L^k), needs rank
    r = n - b >= 2.  The absolute value keeps the bound valid when the signed
    numerator goes negative."""
    r = laplacian_rank(g)
    if r < 2:
        return _na("LB-TR-1", LOWER, "b > n-2")
    p1, p2, _ = power_traces(g)
    return _value("LB-TR-1", LOWER, math.sqrt(abs(p1 * p1 - p2) / (r * (r - 1))))


def lb_trace_cubic_a(g: SignedGraph) -> BoundResult:
    """LB-TR-2: cube root of |2 p3 - 3 p2 p1 + p1^3| / (r(r-1)(r-2)) with
    p_k = tr(L^k), needs rank r = n - b >= 3."""
    r = laplacian_rank(g)
    if r < 3:
        return _na("LB-TR-2", LOWER, "b > n-3")
    p1, p2, p3 = power_traces(g)
    num = abs(2 * p3 - 3 * p2 * p1 + p1 ** 3)
    return _value("LB-TR-2", LOWER, (num / (r * (r - 1) * (r - 2))) ** (1.0 / 3.0))


def lb_trace_cubic_b(g: SignedGraph) -> BoundResult:
    """LB-TR-3: cube root of |p1 p2 - p3| / (r(r-1)) with p_k = tr(L^k), rank
    r >= 2.  The guard is rank n-b >= 2, the condition the r(r-1) denominator
    needs; the stated balanced-component condition would make the bound
    near-vacuous.
    """
    r = laplacian_rank(g)
    if r < 2:
        return _na("LB-TR-3", LOWER, "rank n-b < 2")
    p1, p2, p3 = power_traces(g)
    return _value("LB-TR-3", LOWER, (abs(p1 * p2 - p3) / (r * (r - 1))) ** (1.0 / 3.0))


# -- sign-independent upper bounds ------------------------------------------

def ub_wang_edge(g: SignedGraph) -> BoundResult:
    """UB-WANG-EDGE: edge scan over degrees and average 2-degrees.

    2 + max over edges ij of
        sqrt((d_i + d_j - 2)(d_i^2 m_i + d_j^2 m_j - 2 d_i d_j) / (d_i d_j)),
    where d^2 * m is computed as degree times neighbor-degree sum (an exact
    integer).  Needs a connected graph with an edge.
    """
    if not is_connected(g):
        return _na("UB-WANG-EDGE", UPPER, _NOT_CONNECTED)
    if g.m == 0:
        return _na("UB-WANG-EDGE", UPPER, _NO_EDGE)
    prof = degree_profile(g)
    best = 0.0
    for i, j, _ in zip(*(column.tolist() for column in edge_arrays(g))):
        di, dj = prof.d[i - 1], prof.d[j - 1]
        inner = di * prof.nds[i - 1] + dj * prof.nds[j - 1] - 2 * di * dj
        if inner < 0:
            raise InternalInconsistencyError(f"UB-WANG-EDGE: inner term {inner} < 0")
        best = max(best, (di + dj - 2) * inner / (di * dj))
    return _value("UB-WANG-EDGE", UPPER, 2.0 + math.sqrt(best))


def ub_wang_global(g: SignedGraph) -> BoundResult:
    """UB-WANG-GLOBAL: 2 + sqrt(s2 - 2m - (m-1)*edmin + (edmin-1)*edmax).

    edmin/edmax are the extremes of d_i + d_j - 2 over edges.  Needs a
    connected graph of order more than 2.
    """
    if not is_connected(g):
        return _na("UB-WANG-GLOBAL", UPPER, _NOT_CONNECTED)
    if g.n <= 2:
        return _na("UB-WANG-GLOBAL", UPPER, "order n <= 2")
    prof = degree_profile(g)
    dmin, dmax = prof.edge_deg_min, prof.edge_deg_max
    radicand = prof.s2 - 2 * g.m - (g.m - 1) * dmin + (dmin - 1) * dmax
    if radicand < 0:
        raise InternalInconsistencyError(f"UB-WANG-GLOBAL: radicand {radicand} < 0")
    return _value("UB-WANG-GLOBAL", UPPER, 2.0 + math.sqrt(radicand))


def ub_all_negative(g: SignedGraph) -> BoundResult:
    """UB-ALLNEG: spectral radius of the all-negative signing.

    Its Laplacian D + |A| is |L(g)| entrywise, so no graph is rebuilt.
    Tight exactly when the graph is switching equivalent to its all-negative
    signing.  Needs a connected graph.
    """
    if not is_connected(g):
        return _na("UB-ALLNEG", UPPER, _NOT_CONNECTED)
    return _value("UB-ALLNEG", UPPER, eigenvalues(np.abs(laplacian(g)))[-1])


def lb_interlacing(g: SignedGraph) -> BoundResult:
    """LB-INTERLACE: larger spectral radius of the two one-sign subgraphs.

    L(g) = L+ + L-, as a Laplacian is additive over edge-disjoint spanning
    subgraphs; L+ keeps the negative entries of L(g), one per positive edge,
    with their row counts on its diagonal.  Both are built in one array.
    """
    lap = laplacian(g)
    part = np.minimum(lap, 0)
    np.fill_diagonal(part, -part.sum(axis=1))
    pos = eigenvalues(part)[-1]
    np.subtract(lap, part, out=part)
    neg = eigenvalues(part)[-1]
    return _value("LB-INTERLACE", LOWER, max(pos, neg))


# -- previously known sign-independent bounds --------------------------------

def classic_bounds(g: SignedGraph) -> tuple[BoundResult, ...]:
    """KB-1..KB-4 (upper) and KB-5 (lower), all on connected graphs with an edge.

    All five depend only on degrees and average 2-degrees; products like
    d_i * m_i are evaluated as neighbor-degree sums to stay in integers.
    """
    ids = (("KB-1", UPPER), ("KB-2", UPPER), ("KB-3", UPPER), ("KB-4", UPPER), ("KB-5", LOWER))
    if not is_connected(g):
        return tuple(_na(b, d, _NOT_CONNECTED) for b, d in ids)
    if g.m == 0:
        return tuple(_na(b, d, _NO_EDGE) for b, d in ids)
    prof = degree_profile(g)
    nds = prof.nds
    kb1 = 0.0
    kb2_rad = None
    kb4 = 0.0
    for i, j, _ in zip(*(column.tolist() for column in edge_arrays(g))):
        di, dj = prof.d[i - 1], prof.d[j - 1]
        si, sj = nds[i - 1], nds[j - 1]
        kb1 = max(kb1, (di * di + si + dj * dj + sj) / (di + dj))
        rad = di * di + si - 4 * di + dj * dj + sj - 4 * dj + 4
        if rad < 0:
            raise InternalInconsistencyError(f"KB-2: radicand {rad} < 0 on edge {i},{j}")
        kb2_rad = rad if kb2_rad is None else max(kb2_rad, rad)
        kb4 = max(kb4, (di + dj + math.sqrt((di - dj) ** 2 + 4 * math.sqrt(si * sj))) / 2.0)
    kb3 = max(d + math.sqrt(s) for d, s in zip(prof.d, nds))
    return (
        _value("KB-1", UPPER, kb1),
        _value("KB-2", UPPER, 2.0 + math.sqrt(kb2_rad)),
        _value("KB-3", UPPER, kb3),
        _value("KB-4", UPPER, kb4),
        _value("KB-5", LOWER, prof.max_deg + 1.0),
    )


# -- unsigned-graph corollaries ----------------------------------------------

def unsigned_corollaries(g: SignedGraph) -> tuple[BoundResult, ...]:
    """Bounds for the Laplacian and signless Laplacian of the underlying graph.

    Input signs are ignored.  Each ``UNSIGNED_CATALOG`` entry, in order,
    evaluates its signed bound with every edge signed +1 (Laplacian) or -1
    (signless Laplacian), where the balanced-component count becomes the
    component count c (all-positive) or the bipartite component count
    (all-negative), and signed triangles collapse to +-t.  Results come in
    catalog order and carry the catalog's ids.
    """
    signings = {sign: sign_all(g, sign) for sign in (1, -1)}
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

    With ``check`` on (the default), a sandwich violation raises
    InternalInconsistencyError since the theory rules it out; pass
    check=False to collect violations as data instead.
    """
    results = (
        lb_net_mean(g),
        lb_net_sq(g),
        lb_net_cubic(g),
        ub_wang_edge(g),
        ub_wang_global(g),
        ub_rank_trace(g),
        lb_trace_sq(g),
        lb_trace_cubic_a(g),
        lb_trace_cubic_b(g),
        ub_all_negative(g),
        lb_interlacing(g),
        *classic_bounds(g),
    )
    spectrum = eigenvalues(laplacian(g))
    if check:
        bad = sandwich_violations(results, spectrum[-1], tol)
        if bad:
            detail = "; ".join(f"{r.bound_id}={r.value!r} off by {mag:.3e}" for r, mag in bad)
            raise InternalInconsistencyError(f"bound sandwich violated: {detail}")
    return BoundEvaluation(results=results, spectrum=spectrum)


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
