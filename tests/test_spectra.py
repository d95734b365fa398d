import math

import numpy as np
import pytest
from hypothesis import given, settings

from common import (
    EMPTY3,
    K2N,
    K2P,
    K3M,
    K3N,
    K3P,
    P3P,
    STAR3P,
    oracle_eigs,
    oracle_laplacian,
    oracle_rayleigh,
    random_graphs,
)
from sglap import (
    degree_profile,
    eigenvalues,
    laplacian,
    rayleigh_moment,
    sign_all,
    spectral_radius_laplacian,
    trace_moment,
    triangle_stats,
)
from test_sgraph import signed_graphs


class TestMatrixConstruction:
    def test_laplacian_examples(self):
        assert laplacian(K2P).tolist() == [[1, -1], [-1, 1]]
        assert laplacian(K2N).tolist() == [[1, 1], [1, 1]]
        assert laplacian(K3N).tolist() == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]

    def test_adjacency_examples(self):
        # The signed adjacency matrix is D - L: the negated off-diagonal of L.
        def adjacency(g):
            lap = laplacian(g)
            return (np.diag(np.diag(lap)) - lap).tolist()

        assert adjacency(K2N) == [[0, -1], [-1, 0]]
        assert adjacency(K3P) == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        assert laplacian(EMPTY3).tolist() == [[0] * 3] * 3

    def test_integer_dtype(self):
        assert np.issubdtype(laplacian(K3M).dtype, np.integer)

    def test_read_only(self):
        for m in (laplacian(K3M), laplacian(EMPTY3)):
            with pytest.raises(ValueError):
                m[0, 0] = 5

    def test_sign_all(self):
        assert sign_all(K3M, -1) == K3N
        assert sign_all(K3M, 1) == K3P
        assert sign_all(K2N, -1) == K2N

    def test_sign_all_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            sign_all(K3M, 0)


class TestEigenvalues:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            eigenvalues([[0, 1], [2, 0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            eigenvalues([[1, 2, 3], [2, 1, 3]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="order must be positive"):
            eigenvalues(np.zeros((0, 0)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="not symmetric"):
            eigenvalues([[float("nan"), 0.0], [0.0, 1.0]])

    def test_returns_ascending_python_floats(self):
        values = eigenvalues([[2, 1], [1, 2]])
        assert values == (1.0, 3.0)
        assert all(type(v) is float for v in values)

    @pytest.mark.parametrize(
        "g,expected",
        [
            (K3P, (0.0, 3.0, 3.0)),
            (K3N, (1.0, 1.0, 4.0)),
            (P3P, (0.0, 1.0, 3.0)),
            (STAR3P, (0.0, 1.0, 1.0, 4.0)),
        ],
    )
    def test_known_spectra(self, g, expected):
        got = eigenvalues(laplacian(g))
        assert len(got) == g.n
        for a, b in zip(got, expected):
            assert a == pytest.approx(b, abs=1e-9)
        # The Jacobi oracle the other tests compare against must match too.
        oracle = oracle_eigs(oracle_laplacian(g))
        assert np.max(np.abs(oracle - np.array(expected))) < 1e-12

    def test_one_by_one(self):
        from common import K1

        assert eigenvalues(laplacian(K1)) == (0.0,)

    def test_spectral_radius_examples(self):
        assert spectral_radius_laplacian(K3N) == pytest.approx(4.0, abs=1e-9)
        assert spectral_radius_laplacian(K3M) == pytest.approx(4.0, abs=1e-9)
        assert spectral_radius_laplacian(K2P) == pytest.approx(2.0, abs=1e-9)

    @given(signed_graphs(max_n=10))
    @settings(max_examples=100, deadline=None)
    def test_against_jacobi_oracle(self, g):
        lap = laplacian(g)
        ours = np.array(eigenvalues(lap))
        ref = oracle_eigs(oracle_laplacian(g))
        assert np.max(np.abs(ours - ref)) < 1e-9

    @given(signed_graphs(max_n=12))
    @settings(max_examples=100, deadline=None)
    def test_laplacian_spectrum_shape(self, g):
        spec = eigenvalues(laplacian(g))
        assert abs(sum(spec) - trace_moment(laplacian(g), 1)) <= 1e-9 * g.n
        assert spec[0] >= -1e-9
        assert all(a <= b for a, b in zip(spec, spec[1:]))

    def test_laplacian_spectrum_shape_seeded_corpus(self):
        # sum(lambda^k) = tr(L^k), an exact integer, for k = 1, 2, 3, from the
        # production solver and the Jacobi oracle alike.
        for g in random_graphs(500, base_seed=600, n_max=12, n_min=1):
            lap = laplacian(g)
            spec = eigenvalues(lap)
            assert len(spec) == g.n
            assert spec[0] >= -1e-9
            for values in (np.array(spec), oracle_eigs(oracle_laplacian(g))):
                for k in (1, 2, 3):
                    exact = trace_moment(lap, k)
                    assert isinstance(exact, int)
                    scale = max(1.0, float(np.sum(np.abs(values) ** k)))
                    assert abs(float(np.sum(values ** k)) - exact) <= 1e-12 * scale

    def test_rayleigh_ritz_quotients(self):
        rng = np.random.default_rng(42)
        for g in random_graphs(10, base_seed=900, n_max=10):
            lap = laplacian(g).astype(float)
            lmax = spectral_radius_laplacian(g)
            for _ in range(200):
                x = rng.standard_normal(g.n)
                quotient = (x @ lap @ x) / (x @ x)
                assert quotient <= lmax + 1e-9


class TestTraceMoment:
    def test_examples(self):
        assert trace_moment(laplacian(K3N), 3) == 66
        assert trace_moment(laplacian(K3P), 3) == 54
        assert trace_moment(laplacian(K3M), 2) == 18

    def test_k_out_of_range(self):
        lap = laplacian(K3M)
        for k in (0, 4, -1):
            with pytest.raises(ValueError):
                trace_moment(lap, k)

    def test_returns_exact_int(self):
        assert isinstance(trace_moment(laplacian(K3M), 3), int)

    @given(signed_graphs())
    @settings(max_examples=200)
    def test_closed_form_identities(self, g):
        lap = laplacian(g)
        prof = degree_profile(g)
        tri = triangle_stats(g)
        assert trace_moment(lap, 1) == prof.s1
        assert trace_moment(lap, 2) == prof.s2 + prof.s1
        assert trace_moment(lap, 3) == prof.s3 + 3 * prof.s2 - 6 * tri.t_net

    @given(signed_graphs(max_n=10))
    @settings(max_examples=50, deadline=None)
    def test_matches_eigenvalue_moments(self, g):
        lap = laplacian(g)
        spec = eigenvalues(lap)
        for k in (1, 2, 3):
            want = sum(v ** k for v in spec)
            got = trace_moment(lap, k)
            assert got == pytest.approx(want, rel=1e-7, abs=1e-7)


class TestRayleighMoment:
    def test_examples(self):
        assert rayleigh_moment(K3N, 1) == 12
        assert rayleigh_moment(K3N, 3) == 192
        for k in (1, 2, 3):
            assert rayleigh_moment(K3P, k) == 0

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            rayleigh_moment(K3N, 4)

    @given(signed_graphs())
    @settings(max_examples=200)
    def test_closed_forms_match_matrix_products(self, g):
        for k in (1, 2, 3):
            assert rayleigh_moment(g, k) == oracle_rayleigh(g, k)

    @given(signed_graphs(max_n=10))
    @settings(max_examples=100, deadline=None)
    def test_moment_bounded_by_radius_power(self, g):
        lmax = spectral_radius_laplacian(g)
        for k in (1, 2, 3):
            assert rayleigh_moment(g, k) / g.n <= lmax ** k + 1e-7
