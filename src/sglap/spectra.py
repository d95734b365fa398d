"""Dense matrices of signed graphs, their LAPACK eigenvalues, and exact
trace / Rayleigh moments.

``laplacian`` returns a fresh int64 numpy array on each call, so trace
computations are exact; floating point enters only through the
eigensolver and bound values.  Inside the package every Laplacian is built
as float64 (:func:`_laplacians`): its entries are small integers, so the
eigensolver reads them as they are and ``_exact_traces`` multiplies them
exactly through BLAS.  ``power_traces`` gives the same traces from
degree and triangle counts, without a matrix.  ``eigenvalues`` takes any
square symmetric 2-D array-like and returns its spectrum as an ascending
tuple of floats.  Every eigenvalue the package computes comes from one
``numpy.linalg.eigvalsh`` call site, :func:`_eigvalsh`; a batch of graphs
solves the catalog's four matrices of each graph of one order as one stack
(:func:`_batch_spectra`).
"""

from __future__ import annotations

import numpy as np

from .sgraph import (_BATCH_ELEMENTS, SignedGraph, _degree_stats, _Union, degree_profile,
                     triangle_stats)

__all__ = [
    "laplacian",
    "sign_all",
    "eigenvalues",
    "trace_moment",
    "power_traces",
    "rayleigh_moment",
]


def laplacian(g: SignedGraph) -> np.ndarray:
    """Laplacian D - A as int64: degrees on the diagonal, negated signs off
    it.  Built from ``g``'s edge arrays on each call, as float64 and then
    converted, so each caller gets its own array."""
    u = _Union.of([g])
    return _laplacians(u, np.zeros(1, dtype=np.intp), u.sign[None])[0, 0].astype(np.int64)


def _laplacians(u: _Union, graphs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Laplacians D - A of the graphs ``graphs`` of ``u``, which share one
    order n, with each row of ``weights`` (one weight of -1, 0 or +1 per
    edge of ``u``) in place of their signs: A_ij is the weight of edge ij,
    so a 0 drops the edge, and D_ii counts i's edges of nonzero weight.
    Returns a (len(weights), len(graphs), n, n) float64 stack."""
    n = int(u.n[graphs[0]])
    if len(graphs) == len(u.n):  # every graph of u, in order
        at, i, j, w = u.egraph, u.li, u.lj, weights
    else:
        slot = np.full(len(u.n), -1)
        slot[graphs] = np.arange(len(graphs))
        at = slot[u.egraph]
        keep = at >= 0
        at, i, j, w = at[keep], u.li[keep], u.lj[keep], weights[:, keep]
    stack = np.zeros((len(w), len(graphs), n, n))
    # Each edge's two rows, numbered across the stack, per weight row; the
    # entries are written through flat indices, which numpy scatters faster
    # than a multi-axis index.
    rows = np.arange(len(w))[:, None] * (len(graphs) * n) + at * n
    row_i, row_j = rows + i, rows + j
    flat = stack.reshape(-1)
    flat[(row_i * n + j).ravel()] = flat[(row_j * n + i).ravel()] = -w.ravel()
    nonzero = np.abs(w).ravel()
    degree = np.bincount(np.concatenate((row_i.ravel(), row_j.ravel())),
                         np.concatenate((nonzero, nonzero)), len(flat) // n)
    stack.reshape(len(w), len(graphs), n * n)[..., ::n + 1] = degree.reshape(stack.shape[:3])
    return stack


def sign_all(g: SignedGraph, sign: int) -> SignedGraph:
    """Copy of ``g`` with every edge carrying ``sign``.

    With sign +1 the Laplacian becomes the ordinary unsigned Laplacian;
    with sign -1 it becomes the signless Laplacian D + A.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return g._resigned(np.full(g.m, sign, dtype=np.int64))


def eigenvalues(m) -> tuple[float, ...]:
    """All eigenvalues of a symmetric 2-D array-like, as ascending floats.

    One ``numpy.linalg.eigvalsh`` call (LAPACK ``syevd``: tridiagonal
    reduction, then divide and conquer; Golub & Van Loan, *Matrix
    Computations*, ch. 8) on ``m`` as float64.  It reads one triangle only,
    so input that is not square, is empty, is complex or is not exactly
    symmetric (NaN included) raises ``ValueError`` instead.
    """
    if np.iscomplexobj(m):
        raise ValueError("matrix is complex; its imaginary part would be dropped")
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("matrix order must be positive")
    if not (a == a.T).all():
        raise ValueError("matrix is not symmetric")
    return tuple(_eigvalsh(a).tolist())


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each symmetric float64 matrix in ``a``, one
    matrix or a stack, read from its lower triangle.  numpy solves a stack
    matrix by matrix, with the LAPACK call a single matrix gets, so each
    result equals that matrix's own."""
    return np.linalg.eigvalsh(a)


def _batch_spectra(u: _Union) -> dict[str, np.ndarray]:
    """Spectra of every graph of ``u``, as arrays: the four the catalog reads.

    ``spectra`` holds the ascending spectrum of each graph's L at the
    graph's vertex range of the union (``u.voff``); ``top_abs``,
    ``top_pos`` and ``top_neg`` hold, per graph, the largest eigenvalues of
    |L|, the Laplacian of the all-negative signing, and of L+ and L-, the
    Laplacians of the positive and of the negative edges (L = L+ + L-).
    All these matrices of the graphs of one order are solved as one stack
    by one ``_eigvalsh`` call, in chunks of as many graphs as keep the stack
    within ``_BATCH_ELEMENTS`` entries; where one graph's matrices alone
    pass it, they are solved as few at a time as fit (at least one).
    """
    count = len(u.n)
    out = {"spectra": np.empty(len(u.vgraph)), "top_abs": np.empty(count),
           "top_pos": np.empty(count), "top_neg": np.empty(count)}
    weights = np.array((u.sign, np.full_like(u.sign, -1), np.maximum(u.sign, 0), np.minimum(u.sign, 0)))
    for n in sorted(set(u.n.tolist())):
        group = (u.n == n).nonzero()[0]
        size = max(1, _BATCH_ELEMENTS // (len(weights) * n * n))
        for graphs in (group[k:k + size] for k in range(0, len(group), size)):
            kinds = max(1, _BATCH_ELEMENTS // (len(graphs) * n * n))
            eigs = []
            for k in range(0, len(weights), kinds):
                mats = _laplacians(u, graphs, weights[k:k + kinds])
                eigs.append(_eigvalsh(mats))
                del mats  # before the next chunk is built
            eigs = eigs[0] if len(eigs) == 1 else np.concatenate(eigs)
            out["spectra"][u.voff[graphs, None] + np.arange(n)] = eigs[0]
            out["top_abs"][graphs], out["top_pos"][graphs], out["top_neg"][graphs] = eigs[1:, :, -1]
    return out


def _exact_traces(lap: np.ndarray) -> np.ndarray:
    """(tr L, tr L^2, tr L^3) of each float64 Laplacian L of the stack
    ``lap``, one int64 row per matrix, exact.

    L @ L runs in float64, through BLAS.  Each partial sum of an entry of
    L^2 is an integer of size at most Delta^2 + Delta (Delta, the largest
    degree), so the product is exact in any summation order provided
    Delta^2 + Delta < 2^53, which ``harness.MAX_GENERATED_VERTICES``
    ensures.  tr L^3 can pass 2^53, so its sum runs in int64."""
    ints, square = lap.astype(np.int64), (lap @ lap).astype(np.int64)
    return np.array((ints.trace(axis1=1, axis2=2), square.trace(axis1=1, axis2=2),
                     np.add.reduce(square * ints, axis=(1, 2)))).T


def trace_moment(a: np.ndarray, k: int):
    """tr(a^k) for k in {1, 2, 3} by explicit matrix products.

    Integer matrices give an exact integer result; for a signed Laplacian
    it equals the k-th entry of :func:`power_traces`.
    """
    if k not in (1, 2, 3):
        raise ValueError(f"k must be 1, 2, or 3, got {k!r}")
    if k == 1:
        tr = np.trace(a)
    elif k == 2:
        tr = np.trace(a @ a)
    else:
        tr = np.trace(a @ a @ a)
    if np.issubdtype(a.dtype, np.integer):
        return int(tr)
    return float(tr)


def power_traces(g: SignedGraph) -> tuple[int, int, int]:
    """(tr L, tr L^2, tr L^3) of g's Laplacian as exact integers, from degree
    power sums and signed triangles alone.  No matrix is built, so comparing
    them with :func:`trace_moment` is a real check."""
    prof = degree_profile(g)
    return _power_traces(prof.s1, prof.s2, prof.s3, triangle_stats(g).t_net)


def _power_traces(s1: int, s2: int, s3: int, t_net: int) -> tuple[int, int, int]:
    return s1, s2 + s1, s3 + 3 * s2 - 6 * t_net


def rayleigh_moment(g: SignedGraph, k: int) -> int:
    """x^T L(g)^k x at x = all-ones, as an exact integer, for k in {1, 2, 3}.

    Uses the closed forms
        k=1:  2 * sum_j dneg_j
        k=2:  4 * sum_j dneg_j^2
        k=3:  4 * sum_j d_j * dneg_j^2  -  8 * sum_edges sign_ij * dneg_i * dneg_j
    which agree with the matrix-product definition on every signed graph.
    """
    if k not in (1, 2, 3):
        raise ValueError(f"k must be 1, 2, or 3, got {k!r}")
    return _degree_stats(_Union.of([g]))[3][f"net{k}"].tolist()[0]
