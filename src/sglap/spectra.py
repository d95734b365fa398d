"""Dense matrices of signed graphs, their LAPACK eigenvalues, and exact
trace / Rayleigh moments.

``laplacian`` returns a read-only int64 numpy array, so trace
computations are exact; floating point enters only through the
eigensolver and bound values.  ``eigenvalues`` takes any square symmetric
2-D array-like and returns its spectrum as an ascending tuple of floats.
"""

from __future__ import annotations

import itertools

import numpy as np

from .sgraph import SignedGraph, cached_on_graph, degree_profile

__all__ = [
    "laplacian",
    "sign_all",
    "eigenvalues",
    "spectral_radius_laplacian",
    "trace_moment",
    "rayleigh_moment",
]


@cached_on_graph
def laplacian(g: SignedGraph) -> np.ndarray:
    """Laplacian D - A: degrees on the diagonal, negated signs off it.
    Read-only: the per-graph memo hands one array to every caller."""
    # Endpoint and sign arrays of g's edges, read in one pass.
    flat = np.fromiter(itertools.chain.from_iterable(g.edges), dtype=np.int64, count=3 * g.m)
    i, j, sign = flat.reshape(-1, 3).T
    i, j = i - 1, j - 1
    m = np.zeros((g.n, g.n), dtype=np.int64)
    m[i, j] = m[j, i] = -sign
    np.fill_diagonal(m, np.bincount(np.concatenate((i, j)), minlength=g.n))
    m.setflags(write=False)
    return m


def sign_all(g: SignedGraph, sign: int) -> SignedGraph:
    """Copy of ``g`` with every edge carrying ``sign``.

    With sign +1 the Laplacian becomes the ordinary unsigned Laplacian;
    with sign -1 it becomes the signless Laplacian D + A.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return SignedGraph(g.n, frozenset([(i, j, sign) for i, j, _ in g.edges]))


def eigenvalues(m) -> tuple[float, ...]:
    """All eigenvalues of a symmetric 2-D array-like, as ascending floats.

    One ``numpy.linalg.eigvalsh`` call (LAPACK ``syevd``: tridiagonal
    reduction, then divide and conquer; Golub & Van Loan, *Matrix
    Computations*, ch. 8) on ``m`` as float64.  It reads one triangle only,
    so input that is not square, is empty, or is not exactly symmetric (NaN
    included) raises ``ValueError`` instead.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("matrix order must be positive")
    if not (a == a.T).all():
        raise ValueError("matrix is not symmetric")
    return tuple(np.linalg.eigvalsh(a).tolist())


def spectral_radius_laplacian(g: SignedGraph) -> float:
    """Largest eigenvalue of the signed Laplacian (all of them are >= 0)."""
    return eigenvalues(laplacian(g))[-1]


def trace_moment(a: np.ndarray, k: int):
    """tr(a^k) for k in {1, 2, 3} by explicit matrix products.

    Integer matrices give an exact integer result.  For a signed Laplacian
    the values satisfy tr(L) = s1, tr(L^2) = s2 + s1, and
    tr(L^3) = s3 + 3*s2 - 6*t_net.
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
    prof = degree_profile(g)
    dn = prof.d_neg
    if k == 1:
        return 2 * sum(dn)
    if k == 2:
        return 4 * sum(x * x for x in dn)
    cross = sum(s * dn[i - 1] * dn[j - 1] for i, j, s in g.edges)
    return 4 * sum(d * x * x for d, x in zip(prof.d, dn)) - 8 * cross
