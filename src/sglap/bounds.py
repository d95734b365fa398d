"""Eigenvalue bounds for the signed Laplacian spectral radius.

The signed catalog is one table, ``_CATALOG``, with one row per bound: id,
direction, hypotheses (each with the guard reason an inapplicable result
carries instead of a value), formula and docstring.  ``SIGNED_CATALOG``
(the evaluation order), the public bound functions and ``classic_bounds``
are read off it, so adding or auditing a bound is a one-row edit.  The ids
are a compatibility surface used in CLI output and CSV headers.

:func:`_batch_facts` computes the statistics of a whole batch of graphs as
columns, one array entry per graph.  A row's hypotheses are boolean masks
over them and its formula one array expression, run once on the columns
of the graphs that meet the hypotheses; :func:`_scores` runs the catalog
as a (rows x graphs) value matrix.  ``verify`` and ``report`` read that
matrix; ``evaluate_all``, the public bound functions and ``classic_bounds``
build :class:`BoundResult` objects from it for a batch of one graph.

Degree sums are kept in exact integer arithmetic as long as possible so
the values differ from their defining formulas only by the final float
division, square root, or cube root, each rounded as Python rounds it on
Python numbers: the integer columns the rows read are Python ints, and
cube roots run as Python float powers.  A radicand or moment the theory
makes nonnegative passes through :func:`_nonnegative`, which raises on a
negative entry instead of clamping it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .balance import _balance_counts
from .sgraph import SignedGraph, _degree_stats, _exact_dtype, _segments, _triangle_counts, _Union
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


class _Facts:
    """The statistics :func:`_batch_facts` computes for a batch of graphs,
    as columns: every attribute but ``spectra`` is an array with one entry
    per graph.  ``spectra`` holds the graphs' ascending spectra back to
    back, graph b's ``n[b]`` eigenvalues from ``first[b]`` on."""

    def __init__(self, spectra: np.ndarray, **columns):
        self.spectra = spectra
        self.__dict__.update(columns)

    def __len__(self) -> int:
        return len(self.n)

    def take(self, rows) -> "_Facts":
        """The batch of the graphs ``rows`` selects (a mask or a slice)."""
        return _Facts(self.spectra, **{key: column[rows] for key, column in vars(self).items()
                                       if key != "spectra"})

    def spectrum(self, b: int) -> tuple[float, ...]:
        return tuple(self.spectra[self.first[b]:self.first[b] + self.n[b]].tolist())


# The integer columns the catalog's rows read, held as Python ints.
_EXACT = ("s1", "s2", "p1", "p2", "p3", "net1", "net2", "net3")


def _batch_facts(u: _Union) -> _Facts:
    """Everything the catalog reads, for every graph of the union ``u``.

    Per graph: ``n``, ``m``, ``connected``, ``rank`` (n minus balanced
    components), the :func:`~sglap.sgraph._degree_stats` sums, ``p1``-``p3``
    (:func:`~sglap.spectra.power_traces`), ``lambda_max`` and the other
    :func:`~sglap.spectra._batch_spectra` entries, and the per-edge and
    per-vertex maxima of UB-WANG-EDGE and KB-1..KB-4, with ``wang_bad`` and
    ``kb2_bad`` the first edge's inner term or radicand that is negative,
    else 0, and ``kb2_at`` that edge's ends.  Each edge term is computed as
    the scalar formula would, operation by operation, on exact integers, so
    every value is bit-identical to it.  The ``_EXACT`` columns hold Python
    ints, so every integer a row derives from them is exact.
    """
    d, _, nds, sums = _degree_stats(u)
    t_pos, t_neg = _triangle_counts(u)
    components, balanced = _balance_counts(u)
    facts = {key: np.asarray(column) for key, column in sums.items()}
    p1, p2, p3 = _power_traces(facts["s1"], facts["s2"], facts["s3"], t_pos - t_neg)
    facts.update(n=u.n, m=u.m, connected=components == 1, rank=u.n - balanced,
                 p1=p1, p2=p2, p3=p3, first=u.voff[:-1])
    facts.update({key: np.asarray(facts[key], dtype=object) for key in _EXACT})
    di, dj, si, sj = d[u.i], d[u.j], nds[u.i], nds[u.j]
    # d * nds <= max_deg^3 < 2^60; the UB-WANG-EDGE numerator, at most
    # 4 max_deg^4, is divided as a float, so past 2^53 it is a Python int.
    # The integer terms are exact, so they are shared in any order.
    dsum, dprod, second = di + dj, di * dj, di * di + si + dj * dj + sj
    inner = di * si + dj * sj - 2 * dprod
    wide = _exact_dtype(4 * int(d.max()) ** 4, 2 ** 53)
    rad = second - 4 * dsum + 4
    facts["wang"], facts["kb1"], facts["kb4"] = _segments(np.maximum, np.array((
        (dsum - 2).astype(wide, copy=False) * inner / dprod.astype(wide, copy=False),
        second / dsum,
        # si * 1.0 * sj rounds the exact product once, as float(si * sj) does.
        (dsum + np.sqrt((di - dj) ** 2 + 4 * np.sqrt(si * 1.0 * sj))) / 2.0)), u.eoff
    ).astype(np.float64, copy=False)
    facts["kb2"] = _segments(np.maximum, rad, u.eoff)
    facts["kb3"] = np.maximum.reduceat(d + np.sqrt(nds), u.voff[:-1])
    facts["wang_bad"], facts["kb2_bad"] = np.zeros((2, len(u.n)), dtype=np.int64)
    facts["kb2_at"] = np.zeros((len(u.n), 2), dtype=np.int64)
    for e in (inner < 0).nonzero()[0][::-1].tolist():  # the first edge of a graph wins
        facts["wang_bad"][u.egraph[e]] = inner[e]
    for e in (rad < 0).nonzero()[0][::-1].tolist():
        facts["kb2_bad"][u.egraph[e]] = rad[e]
        facts["kb2_at"][u.egraph[e]] = u.li[e] + 1, u.lj[e] + 1
    facts.update(_batch_spectra(u))
    facts["lambda_max"] = facts["spectra"][u.voff[1:] - 1]
    return _Facts(**facts)


# -- the catalog ----------------------------------------------------------------

class _Negative(InternalInconsistencyError):
    """A negative radicand or moment at graph ``graph`` of a batch: raised by
    :func:`_nonnegative`, then again by :func:`_scores` with the bound's id."""

    def __init__(self, graph: int, message: str):
        super().__init__(message)
        self.graph = graph


def _nonnegative(x, what: str = "radicand", where: Callable[[int], str] = lambda k: ""):
    """``x``, a column of radicands or moments the theory makes nonnegative;
    a negative entry is asserted as a bug, never clamped.  The first graph
    with one is named, and ``where(k)`` ends the message for graph k."""
    negative = x < 0
    if np.count_nonzero(negative):
        k = int(negative.argmax())
        raise _Negative(k, f"{what} {x[k]} < 0{where(k)}")
    return x


def _sqrt(x) -> np.ndarray:
    """Square roots of ``x``, int64 or Python ints (which ``np.sqrt`` does
    not convert) converted to float as Python converts them."""
    return np.sqrt(np.asarray(x, dtype=np.float64))


def _cbrt(x) -> list[float]:
    """``x ** (1/3)`` of each entry as Python's float power computes it.
    numpy's own ``power`` may differ from it in the last bit, so it runs on
    Python floats (an object array's ``np.power`` would too, at more cost)."""
    return [value ** (1.0 / 3.0) for value in x.tolist()]


@dataclass(frozen=True, slots=True)
class _Row:
    """One bound, returned by the public function ``function``.  On a graph
    where a hypothesis of ``needs`` fails the bound is inapplicable, with
    the first failing one's guard reason; else its value is ``formula``,
    which maps the columns of the graphs where all hold to their values."""

    function: str
    bound_id: str
    direction: str
    needs: tuple[tuple[Callable[[_Facts], np.ndarray], str], ...]
    formula: Callable[[_Facts], np.ndarray]
    doc: str


# UB-WANG-EDGE and KB-2 take the maximum of per-edge terms; the assert reads
# the first edge whose inner term or radicand is negative, not the maximum.
def _wang_edge(f: _Facts) -> np.ndarray:
    _nonnegative(f.wang_bad, "inner term")
    return 2.0 + np.sqrt(f.wang)


def _kb2(f: _Facts) -> np.ndarray:
    _nonnegative(f.kb2_bad, where=lambda k: " on edge {},{}".format(*f.kb2_at[k]))
    return 2.0 + np.sqrt(f.kb2)


_CONNECTED = (lambda f: f.connected, "graph not connected")
_AN_EDGE = (lambda f: f.m > 0, "at least one edge required")

# In evaluation order, which is also the report's column order.
_CATALOG: tuple[_Row, ...] = (
    _Row("lb_net_mean", "LB-NET-1", LOWER, (_CONNECTED,),
         lambda f: f.net1 / f.n,
         "(2/n) * sum of negative degrees, for connected graphs."),
    _Row("lb_net_sq", "LB-NET-2", LOWER, (_CONNECTED,),
         lambda f: _sqrt(f.net2 / f.n),
         "sqrt((4/n) * sum of squared negative degrees), connected graphs."),
    _Row("lb_net_cubic", "LB-NET-3", LOWER, (_CONNECTED,),
         lambda f: _cbrt(_nonnegative(f.net3, "cubic moment", lambda k: " on a PSD matrix") / f.n),
         """cube root of (x^T L^3 x)/n at x = all-ones, connected graphs.  The
         inner moment is nonnegative because L^3 is positive semidefinite."""),
    _Row("ub_wang_edge", "UB-WANG-EDGE", UPPER, (_CONNECTED, _AN_EDGE),
         _wang_edge,
         """2 + max over edges ij of
             sqrt((d_i + d_j - 2)(d_i^2 m_i + d_j^2 m_j - 2 d_i d_j) / (d_i d_j)),
         where d^2 * m is computed as degree times neighbor-degree sum (an exact
         integer).  Needs a connected graph with an edge."""),
    _Row("ub_wang_global", "UB-WANG-GLOBAL", UPPER,
         (_CONNECTED, (lambda f: f.n > 2, "order n <= 2")),
         lambda f: 2.0 + _sqrt(_nonnegative(
             f.s2 - 2 * f.m - (f.m - 1) * f.edge_deg_min + (f.edge_deg_min - 1) * f.edge_deg_max)),
         """2 + sqrt(s2 - 2m - (m-1)*edmin + (edmin-1)*edmax), where edmin/edmax
         are the extremes of d_i + d_j - 2 over edges.  Needs a connected graph
         of order more than 2."""),
    _Row("ub_rank_trace", "UB-RANK", UPPER, (_AN_EDGE,),
         lambda f: (f.s1 + _sqrt(_nonnegative(
             (f.rank - 1) * (f.rank * (f.s1 + f.s2) - f.s1 * f.s1)))) / f.rank,
         """mean-plus-deviation bound over the nonzero spectrum,
             s1/r + sqrt((s1+s2) - (s1+s2+s1^2)/r + (s1/r)^2),
         r = rank(L) = n - b: s1/r is the mean nonzero eigenvalue and the radicand
         (r-1) times its variance.  It is computed as (s1 + sqrt(N))/r, with no
         cancellation, from N = (r-1)(r(s1+s2) - s1^2), the radicand scaled by
         r^2 and an exact integer.  Needs at least one edge (so r >= 1)."""),
    _Row("lb_trace_sq", "LB-TR-1", LOWER, ((lambda f: f.rank >= 2, "b > n-2"),),
         lambda f: _sqrt(np.abs(f.p1 * f.p1 - f.p2) / (f.rank * (f.rank - 1))),
         """sqrt(|p1^2 - p2| / (r(r-1))) with p_k = tr(L^k), needs rank
         r = n - b >= 2.  The absolute value keeps the bound valid when the
         signed numerator goes negative."""),
    _Row("lb_trace_cubic_a", "LB-TR-2", LOWER, ((lambda f: f.rank >= 3, "b > n-3"),),
         lambda f: _cbrt(np.abs(2 * f.p3 - 3 * f.p2 * f.p1 + f.p1 ** 3)
                         / (f.rank * (f.rank - 1) * (f.rank - 2))),
         """cube root of |2 p3 - 3 p2 p1 + p1^3| / (r(r-1)(r-2)) with
         p_k = tr(L^k), needs rank r = n - b >= 3."""),
    _Row("lb_trace_cubic_b", "LB-TR-3", LOWER, ((lambda f: f.rank >= 2, "rank n-b < 2"),),
         lambda f: _cbrt(np.abs(f.p1 * f.p2 - f.p3) / (f.rank * (f.rank - 1))),
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
         # max(top_pos, top_neg) as Python's max picks it
         lambda f: np.where(f.top_neg > f.top_pos, f.top_neg, f.top_pos),
         """larger spectral radius of the two one-sign subgraphs, whose
         Laplacians L+ and L- = L(g) - L+ are read off L(g)."""),
    _Row("classic_bounds", "KB-1", UPPER, (_CONNECTED, _AN_EDGE),
         lambda f: f.kb1,
         "max over edges ij of (d_i^2 + nds_i + d_j^2 + nds_j) / (d_i + d_j)."),
    _Row("classic_bounds", "KB-2", UPPER, (_CONNECTED, _AN_EDGE),
         _kb2,
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
    """The public function ``name``: its row on a graph, whose facts each call
    computes afresh (:func:`evaluate_all` gives every row from one)."""
    (row,) = [row for row in _CATALOG if row.function == name]

    def bound(g: SignedGraph) -> BoundResult:
        ((result,),) = _results(_batch_facts(_Union.of([g])), (row,))
        return result

    bound.__name__ = bound.__qualname__ = name
    bound.__doc__ = (f"{row.bound_id}: {row.doc}\n\n    Each call evaluates ``g`` afresh; "
                     "``evaluate_all`` gives\n    every bound from one evaluation.")
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
    edge, from one evaluation of ``g`` made afresh on each call.  They read
    only degrees d and neighbor-degree sums nds (d_i m_i, with m_i the
    average 2-degree), which stay exact integers:"""
    (results,) = _results(_batch_facts(_Union.of([g])), _CLASSIC)
    return results


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
    evaluated as one batch (:func:`_batch_facts`), on the signed rows the
    entries name only.
    """
    names = {signed_bound.__name__ for _, _, signed_bound in UNSIGNED_CATALOG}
    rows = tuple(row for row in _CATALOG if row.function in names)
    scored = _results(_batch_facts(_Union.of([sign_all(g, 1), sign_all(g, -1)])), rows)
    signings = {sign: dict(zip([row.function for row in rows], results))
                for sign, results in zip((1, -1), scored)}
    return tuple(
        replace(signings[sign][signed_bound.__name__], bound_id=bound_id)
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
    f = _batch_facts(_Union.of([g]))
    (results,) = _results(f)
    ev = BoundEvaluation(results, f.spectrum(0))
    if check:
        bad = sandwich_violations(ev.results, ev.lambda_max, tol)
        if bad:
            detail = "; ".join(f"{r.bound_id}={r.value!r} off by {mag:.3e}" for r, mag in bad)
            raise InternalInconsistencyError(f"bound sandwich violated: {detail}")
    return ev


def _scores(f: _Facts, rows: tuple[_Row, ...] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` (the catalog by default) on every graph of ``f``: a
    (rows, graphs) float matrix of values, NaN where a row is inapplicable,
    and the boolean matrix of where each applies.  Each hypothesis is tested
    once, and each formula runs once, on the columns of the graphs that
    meet its row's hypotheses.

    Raises:
        InternalInconsistencyError: a formula met a negative radicand or
            moment.  It names the first graph with one and, on that graph,
            the first such row; its ``graph`` attribute is the graph's index.
    """
    rows = _CATALOG if rows is None else rows
    values = np.full((len(rows), len(f)), np.nan)
    applicable = np.ones(values.shape, dtype=bool)
    failing, admitted, taken, bad = {}, {}, {}, None
    for k, row in enumerate(rows):
        entry = admitted.get(row.needs)
        if entry is None:
            # The graphs that meet every hypothesis: a mask, or None for all.
            ok = None
            for holds, _ in row.needs:
                if holds not in failing:
                    mask = holds(f)
                    failing[holds] = mask if np.count_nonzero(mask) < len(mask) else None
                if failing[holds] is not None:
                    ok = failing[holds] if ok is None else ok & failing[holds]
            key = None if ok is None else ok.tobytes()  # rows often share one mask
            if key not in taken:
                taken[key] = f if ok is None else f.take(ok)
            entry = admitted[row.needs] = ok, taken[key]
        ok, sub = entry
        try:
            if ok is None:
                values[k] = row.formula(sub)
            else:
                applicable[k] = ok
                values[k, ok] = row.formula(sub)
        except _Negative as err:
            graph = err.graph if ok is None else int(ok.nonzero()[0][err.graph])
            if bad is None or graph < bad.graph:
                bad = _Negative(graph, f"{row.bound_id}: {err}")
    if bad is not None:
        raise bad
    return values, applicable


def _results(f: _Facts, rows: tuple[_Row, ...] | None = None) -> list[tuple[BoundResult, ...]]:
    """The results of ``rows`` (the catalog by default) on each graph of
    ``f``, in row order; an inapplicable one carries the reason of its
    first failing hypothesis."""
    rows = _CATALOG if rows is None else rows
    values, applicable = _scores(f, rows)
    out = []
    for b, (column, admits) in enumerate(zip(values.T.tolist(), applicable.T.tolist())):
        out.append(tuple(
            BoundResult(row.bound_id, row.direction, True, "", value) if ok else
            BoundResult(row.bound_id, row.direction, False,
                        next(reason for holds, reason in row.needs if not holds(f)[b]))
            for row, value, ok in zip(rows, column, admits)))
    return out
