"""Eigenvalue bounds for the signed Laplacian spectral radius.

The signed catalog is one table, ``_CATALOG``, with one row per bound: id,
direction, hypotheses (each with the guard reason an inapplicable result
carries instead of a value), formula and docstring.  ``SIGNED_CATALOG``
(the evaluation order), the public bound functions and ``classic_bounds``
are read off it, so adding or auditing a bound is a one-row edit.  The ids
are a compatibility surface used in CLI output and CSV headers.

Each formula reads the statistics :func:`_batch_facts` computes for a whole
batch of graphs in one pass; called on a graph, a bound reads that graph's
batch of one.  Degree sums are kept in exact integer arithmetic as long as
possible so the values differ from their defining formulas only by the
final float division, square root, or cube root.  A radicand or moment the
theory makes nonnegative passes through :func:`_nonnegative`, which raises
on a negative value instead of clamping it.
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
    ``p1``-``p3`` (:func:`~sglap.spectra.power_traces`), the
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
    facts["p1"], facts["p2"], facts["p3"] = zip(*map(
        _power_traces, facts["s1"], facts["s2"], facts["s3"], facts["t_net"]))
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


# -- the catalog ----------------------------------------------------------------

class _Negative(Exception):
    """A negative :func:`_nonnegative` argument; the row that met it names its bound."""


def _nonnegative(x, what: str = "radicand", where: str = ""):
    """``x``, a radicand or moment the theory makes nonnegative; a negative
    value is asserted as a bug, never clamped."""
    if x < 0:
        raise _Negative(f"{what} {x} < 0{where}")
    return x


@dataclass(frozen=True, slots=True)
class _Row:
    """One bound, returned by the public function ``function``.  The first
    (hypothesis, guard reason) pair of ``needs`` whose hypothesis fails on a
    graph's facts makes the bound inapplicable; else its value is ``formula``."""

    function: str
    bound_id: str
    direction: str
    needs: tuple[tuple[Callable[[_Facts], bool], str], ...]
    formula: Callable[[_Facts], float]
    doc: str

    def result(self, f: _Facts) -> BoundResult:
        for holds, reason in self.needs:
            if not holds(f):
                return BoundResult(self.bound_id, self.direction, False, reason)
        try:
            value = self.formula(f)
        except _Negative as err:
            raise InternalInconsistencyError(f"{self.bound_id}: {err}") from None
        return BoundResult(self.bound_id, self.direction, True, "", float(value))


_CONNECTED = (lambda f: f.connected, "graph not connected")
_AN_EDGE = (lambda f: f.m > 0, "at least one edge required")

# In evaluation order, which is also the report's column order.
_CATALOG: tuple[_Row, ...] = (
    _Row("lb_net_mean", "LB-NET-1", LOWER, (_CONNECTED,),
         lambda f: f.net1 / f.n,
         "(2/n) * sum of negative degrees, for connected graphs."),
    _Row("lb_net_sq", "LB-NET-2", LOWER, (_CONNECTED,),
         lambda f: math.sqrt(f.net2 / f.n),
         "sqrt((4/n) * sum of squared negative degrees), connected graphs."),
    _Row("lb_net_cubic", "LB-NET-3", LOWER, (_CONNECTED,),
         lambda f: (_nonnegative(f.net3, "cubic moment", " on a PSD matrix") / f.n) ** (1.0 / 3.0),
         """cube root of (x^T L^3 x)/n at x = all-ones, connected graphs.  The
         inner moment is nonnegative because L^3 is positive semidefinite."""),
    _Row("ub_wang_edge", "UB-WANG-EDGE", UPPER, (_CONNECTED, _AN_EDGE),
         lambda f: (2.0 + math.sqrt(f.wang) if f.wang_bad is None
                    else _nonnegative(f.wang_bad, "inner term")),
         """2 + max over edges ij of
             sqrt((d_i + d_j - 2)(d_i^2 m_i + d_j^2 m_j - 2 d_i d_j) / (d_i d_j)),
         where d^2 * m is computed as degree times neighbor-degree sum (an exact
         integer).  Needs a connected graph with an edge."""),
    _Row("ub_wang_global", "UB-WANG-GLOBAL", UPPER,
         (_CONNECTED, (lambda f: f.n > 2, "order n <= 2")),
         lambda f: 2.0 + math.sqrt(_nonnegative(
             f.s2 - 2 * f.m - (f.m - 1) * f.edge_deg_min + (f.edge_deg_min - 1) * f.edge_deg_max)),
         """2 + sqrt(s2 - 2m - (m-1)*edmin + (edmin-1)*edmax), where edmin/edmax
         are the extremes of d_i + d_j - 2 over edges.  Needs a connected graph
         of order more than 2."""),
    _Row("ub_rank_trace", "UB-RANK", UPPER, (_AN_EDGE,),
         lambda f: (f.s1 + math.sqrt(_nonnegative(
             (f.rank - 1) * (f.rank * (f.s1 + f.s2) - f.s1 * f.s1)))) / f.rank,
         """mean-plus-deviation bound over the nonzero spectrum,
             s1/r + sqrt((s1+s2) - (s1+s2+s1^2)/r + (s1/r)^2),
         r = rank(L) = n - b: s1/r is the mean nonzero eigenvalue and the radicand
         (r-1) times its variance.  It is computed as (s1 + sqrt(N))/r, with no
         cancellation, from N = (r-1)(r(s1+s2) - s1^2), the radicand scaled by
         r^2 and an exact integer.  Needs at least one edge (so r >= 1)."""),
    _Row("lb_trace_sq", "LB-TR-1", LOWER, ((lambda f: f.rank >= 2, "b > n-2"),),
         lambda f: math.sqrt(abs(f.p1 * f.p1 - f.p2) / (f.rank * (f.rank - 1))),
         """sqrt(|p1^2 - p2| / (r(r-1))) with p_k = tr(L^k), needs rank
         r = n - b >= 2.  The absolute value keeps the bound valid when the
         signed numerator goes negative."""),
    _Row("lb_trace_cubic_a", "LB-TR-2", LOWER, ((lambda f: f.rank >= 3, "b > n-3"),),
         lambda f: (abs(2 * f.p3 - 3 * f.p2 * f.p1 + f.p1 ** 3)
                    / (f.rank * (f.rank - 1) * (f.rank - 2))) ** (1.0 / 3.0),
         """cube root of |2 p3 - 3 p2 p1 + p1^3| / (r(r-1)(r-2)) with
         p_k = tr(L^k), needs rank r = n - b >= 3."""),
    _Row("lb_trace_cubic_b", "LB-TR-3", LOWER, ((lambda f: f.rank >= 2, "rank n-b < 2"),),
         lambda f: (abs(f.p1 * f.p2 - f.p3) / (f.rank * (f.rank - 1))) ** (1.0 / 3.0),
         """cube root of |p1 p2 - p3| / (r(r-1)) with p_k = tr(L^k), needs rank
         r = n - b >= 2, as the denominator does; the stated balanced-component
         condition would make the bound near-vacuous."""),
    _Row("ub_all_negative", "UB-ALLNEG", UPPER, (_CONNECTED,),
         lambda f: f.top_abs,
         """spectral radius of the all-negative signing, whose Laplacian D + |A|
         is |L(g)| entrywise, so no graph is rebuilt.  Tight exactly when the
         graph is switching equivalent to its all-negative signing.  Needs a
         connected graph."""),
    _Row("lb_interlacing", "LB-INTERLACE", LOWER, (),
         lambda f: max(f.top_pos, f.top_neg),
         """larger spectral radius of the two one-sign subgraphs, whose
         Laplacians L+ and L- = L(g) - L+ are read off L(g)."""),
    _Row("classic_bounds", "KB-1", UPPER, (_CONNECTED, _AN_EDGE),
         lambda f: f.kb1,
         "max over edges ij of (d_i^2 + nds_i + d_j^2 + nds_j) / (d_i + d_j)."),
    _Row("classic_bounds", "KB-2", UPPER, (_CONNECTED, _AN_EDGE),
         lambda f: (2.0 + math.sqrt(f.kb2) if f.kb2_bad is None else _nonnegative(
             f.kb2_bad[0], where=" on edge {},{}".format(*f.kb2_bad[1:]))),
         "2 + sqrt(max over edges ij of d_i^2 + nds_i - 4 d_i + d_j^2 + nds_j - 4 d_j + 4)."),
    _Row("classic_bounds", "KB-3", UPPER, (_CONNECTED, _AN_EDGE),
         lambda f: f.kb3,
         "max over vertices of d + sqrt(nds)."),
    _Row("classic_bounds", "KB-4", UPPER, (_CONNECTED, _AN_EDGE),
         lambda f: f.kb4,
         "max over edges ij of (d_i + d_j + sqrt((d_i - d_j)^2 + 4 sqrt(nds_i nds_j))) / 2."),
    _Row("classic_bounds", "KB-5", LOWER, (_CONNECTED, _AN_EDGE),
         lambda f: f.max_deg + 1.0,
         "max_deg + 1."),
)

SIGNED_CATALOG: tuple[str, ...] = tuple(row.bound_id for row in _CATALOG)


def _bound_function(name: str) -> Callable[[SignedGraph], BoundResult]:
    """The public function ``name``: its row on a graph or on one graph's facts."""
    (row,) = [row for row in _CATALOG if row.function == name]

    def bound(g: SignedGraph) -> BoundResult:
        return row.result(_facts(g))

    bound.__name__ = bound.__qualname__ = name
    bound.__doc__ = f"{row.bound_id}: {row.doc}"
    return bound


lb_net_mean = _bound_function("lb_net_mean")
lb_net_sq = _bound_function("lb_net_sq")
lb_net_cubic = _bound_function("lb_net_cubic")
ub_wang_edge = _bound_function("ub_wang_edge")
ub_wang_global = _bound_function("ub_wang_global")
ub_rank_trace = _bound_function("ub_rank_trace")
lb_trace_sq = _bound_function("lb_trace_sq")
lb_trace_cubic_a = _bound_function("lb_trace_cubic_a")
lb_trace_cubic_b = _bound_function("lb_trace_cubic_b")
ub_all_negative = _bound_function("ub_all_negative")
lb_interlacing = _bound_function("lb_interlacing")

_CLASSIC = tuple(row for row in _CATALOG if row.function == "classic_bounds")


def classic_bounds(g: SignedGraph) -> tuple[BoundResult, ...]:
    """KB-1..KB-4 (upper) and KB-5 (lower), all on connected graphs with an
    edge.  They read only degrees d and neighbor-degree sums nds (d_i m_i,
    with m_i the average 2-degree), which stay exact integers:"""
    f = _facts(g)
    return tuple([row.result(f) for row in _CLASSIC])


classic_bounds.__doc__ += "".join(f"\n    {row.bound_id}: {row.doc}" for row in _CLASSIC)


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
    return BoundEvaluation(tuple([row.result(f) for row in _CATALOG]), f.spectrum)
