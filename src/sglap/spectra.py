"""Dense symmetric matrices for signed graphs, their LAPACK eigenvalues,
and exact trace / Rayleigh moments.

Matrices built from graphs keep an integer dtype so trace computations are
exact; floating point enters only through the eigensolver and bound values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .sgraph import SignedGraph, cached_on_graph, degree_profile

__all__ = [
    "SymMatrix",
    "Spectrum",
    "adjacency",
    "laplacian",
    "sign_all",
    "eigenvalues",
    "spectral_radius_laplacian",
    "trace_moment",
    "rayleigh_moment",
]


class SymMatrix:
    """Dense real symmetric matrix with exact (entrywise) symmetry.

    Wraps a read-only numpy array; rejects non-square or asymmetric input.
    """

    __slots__ = ("_data",)

    def __init__(self, data):
        arr = np.array(data, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise ValueError("matrix order must be positive")
        if not np.array_equal(arr, arr.T):
            raise ValueError("matrix is not symmetric")
        arr.setflags(write=False)
        self._data = arr

    @property
    def order(self) -> int:
        return self._data.shape[0]

    @property
    def data(self) -> np.ndarray:
        return self._data

    def __repr__(self) -> str:
        return f"SymMatrix(order={self.order}, dtype={self._data.dtype})"


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues in ascending order."""

    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("spectrum cannot be empty")
        if any(b < a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("eigenvalues must be sorted ascending")

    @property
    def lambda_max(self) -> float:
        return self.values[-1]


def _edge_index(g: SignedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # 0-based endpoint arrays and the sign array of g's edges, in one pass.
    flat = np.fromiter(itertools.chain.from_iterable(g.edges), dtype=np.int64, count=3 * g.m)
    i, j, sign = flat.reshape(-1, 3).T
    return i - 1, j - 1, sign


def adjacency(g: SignedGraph) -> SymMatrix:
    """Signed adjacency matrix: entry (i, j) is the sign of edge ij, else 0."""
    i, j, sign = _edge_index(g)
    a = np.zeros((g.n, g.n), dtype=np.int64)
    a[i, j] = a[j, i] = sign
    return SymMatrix(a)


@cached_on_graph
def laplacian(g: SignedGraph) -> SymMatrix:
    """Laplacian D - A: degrees on the diagonal, negated signs off it."""
    i, j, sign = _edge_index(g)
    m = np.zeros((g.n, g.n), dtype=np.int64)
    m[i, j] = m[j, i] = -sign
    np.fill_diagonal(m, np.bincount(np.concatenate((i, j)), minlength=g.n))
    return SymMatrix(m)


def sign_all(g: SignedGraph, sign: int) -> SignedGraph:
    """Copy of ``g`` with every edge carrying ``sign``.

    With sign +1 the Laplacian becomes the ordinary unsigned Laplacian;
    with sign -1 it becomes the signless Laplacian D + A.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return SignedGraph.from_edges(g.n, [(e.i, e.j, sign) for e in g.edges])


def eigenvalues(m: SymMatrix) -> Spectrum:
    """All eigenvalues of a symmetric matrix, ascending, by one LAPACK call.

    ``numpy.linalg.eigvalsh`` (LAPACK ``syevd``: tridiagonal reduction, then
    divide and conquer; Golub & Van Loan, *Matrix Computations*, ch. 8) runs
    on a float64 copy of the matrix.
    """
    values = np.linalg.eigvalsh(m.data.astype(np.float64))
    return Spectrum(tuple(values.tolist()))


def spectral_radius_laplacian(g: SignedGraph) -> float:
    """Largest eigenvalue of the signed Laplacian (all of them are >= 0)."""
    return eigenvalues(laplacian(g)).lambda_max


def trace_moment(m: SymMatrix, k: int):
    """tr(M^k) for k in {1, 2, 3} by explicit matrix products.

    Integer matrices give an exact integer result.  For a signed Laplacian
    the values satisfy tr(L) = s1, tr(L^2) = s2 + s1, and
    tr(L^3) = s3 + 3*s2 - 6*t_net.
    """
    if k not in (1, 2, 3):
        raise ValueError(f"k must be 1, 2, or 3, got {k!r}")
    a = m.data
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
    cross = sum(e.sign * dn[e.i - 1] * dn[e.j - 1] for e in g.edges)
    return 4 * sum(d * x * x for d, x in zip(prof.d, dn)) - 8 * cross
