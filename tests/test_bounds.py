import math

import pytest
from hypothesis import given, settings

from common import (
    EMPTY3,
    K2N,
    K2P,
    K3M,
    K3N,
    K3P,
    K3P_K3N,
    P3N,
    P3P,
    direct_unsigned_bounds,
    oracle_rayleigh,
    oracle_trace,
    random_graphs,
)
from sglap import (
    SIGNED_CATALOG,
    UNSIGNED_CATALOG,
    BoundResult,
    SignedGraph,
    classic_bounds,
    degree_profile,
    evaluate_all,
    lb_interlacing,
    lb_net_cubic,
    lb_net_mean,
    lb_net_sq,
    lb_trace_cubic_a,
    lb_trace_cubic_b,
    lb_trace_sq,
    laplacian_rank,
    sandwich_violations,
    sign_all,
    spectral_radius_laplacian,
    switching_equivalent,
    ub_all_negative,
    ub_rank_trace,
    ub_wang_edge,
    ub_wang_global,
    unsigned_corollaries,
)
from test_sgraph import signed_graphs

CUBE = 1.0 / 3.0


def permuted(g: SignedGraph, perm: dict[int, int]) -> SignedGraph:
    return SignedGraph.from_edges(g.n, [(perm[i], perm[j], s) for i, j, s in g.edges])


class TestNetDegreeLowerBounds:
    def test_mean_examples(self):
        assert lb_net_mean(K3N).value == pytest.approx(4.0)
        assert lb_net_mean(K3M).value == pytest.approx(4.0 / 3.0)
        assert lb_net_mean(K3P).value == 0.0

    def test_sq_examples(self):
        assert lb_net_sq(K3N).value == pytest.approx(4.0)
        assert lb_net_sq(K2N).value == pytest.approx(2.0)
        assert lb_net_sq(K3M).value == pytest.approx(math.sqrt(8.0 / 3.0))

    def test_cubic_examples(self):
        assert lb_net_cubic(K3N).value == pytest.approx(4.0)
        assert lb_net_cubic(K3M).value == pytest.approx(2.0)
        assert lb_net_cubic(P3N).value == pytest.approx((72.0 / 3.0) ** CUBE)
        assert lb_net_cubic(P3N).value <= 3.0 + 1e-9

    def test_connectivity_guard(self):
        for fn in (lb_net_mean, lb_net_sq, lb_net_cubic):
            res = fn(K3P_K3N)
            assert not res.applicable
            assert res.guard_reason == "graph not connected"
            assert res.value is None

    def test_values_match_rayleigh_oracle_exactly(self):
        for g in random_graphs(60, base_seed=1300, connected=True, n_max=10):
            assert lb_net_mean(g).value == oracle_rayleigh(g, 1) / g.n
            assert lb_net_sq(g).value == math.sqrt(oracle_rayleigh(g, 2) / g.n)
            assert lb_net_cubic(g).value == (oracle_rayleigh(g, 3) / g.n) ** CUBE

    def test_permutation_invariance(self):
        g = K3M
        for perm in ({1: 2, 2: 3, 3: 1}, {1: 3, 2: 1, 3: 2}, {1: 2, 2: 1, 3: 3}):
            h = permuted(g, perm)
            assert lb_net_mean(h).value == lb_net_mean(g).value
            assert lb_net_sq(h).value == lb_net_sq(g).value
            assert lb_net_cubic(h).value == lb_net_cubic(g).value

    @given(signed_graphs())
    @settings(max_examples=100)
    def test_all_positive_gives_zero(self, g):
        gp = sign_all(g, 1)
        for fn in (lb_net_mean, lb_net_sq, lb_net_cubic):
            res = fn(gp)
            if res.applicable:
                assert res.value == 0.0


class TestRankTraceBounds:
    def test_ub_rank_examples(self):
        assert ub_rank_trace(K2P).value == pytest.approx(2.0)
        assert ub_rank_trace(K3N).value == pytest.approx(4.0)
        assert ub_rank_trace(P3P).value == pytest.approx(3.0)

    def test_ub_rank_needs_edge(self):
        res = ub_rank_trace(EMPTY3)
        assert not res.applicable
        assert "at least one edge" in res.guard_reason

    def test_lb_trace_sq_examples(self):
        assert lb_trace_sq(K3P).value == pytest.approx(3.0)
        assert lb_trace_sq(K3N).value == pytest.approx(math.sqrt(3.0))
        guarded = lb_trace_sq(K2P)
        assert not guarded.applicable
        assert guarded.guard_reason == "b > n-2"

    def test_lb_trace_cubic_a_examples(self):
        assert lb_trace_cubic_a(K3N).value == pytest.approx(4.0 ** CUBE)
        assert not lb_trace_cubic_a(K3P).applicable

    def test_lb_trace_cubic_a_union_both_routes(self):
        res = lb_trace_cubic_a(K3P_K3N)
        assert res.applicable
        r = 5
        tr1, tr2, tr3 = (oracle_trace(K3P_K3N, k) for k in (1, 2, 3))
        via_traces = (abs(2 * tr3 - 3 * tr2 * tr1 + tr1 ** 3) / (r * (r - 1) * (r - 2))) ** CUBE
        assert res.value == pytest.approx(via_traces, abs=1e-12)
        assert res.value == pytest.approx((672.0 / 60.0) ** CUBE)

    def test_lb_trace_cubic_b_examples(self):
        assert lb_trace_cubic_b(K3P).value == pytest.approx(3.0)
        assert lb_trace_cubic_b(K3N).value == pytest.approx(7.0 ** CUBE)
        assert not lb_trace_cubic_b(K2P).applicable


class TestSignBlindUpperBounds:
    def test_wang_edge_examples(self):
        assert ub_wang_edge(K3N).value == pytest.approx(4.0)
        assert ub_wang_edge(P3P).value == pytest.approx(3.0)
        assert ub_wang_edge(K3M).value == pytest.approx(4.0)

    def test_wang_global_examples(self):
        assert ub_wang_global(K3N).value == pytest.approx(4.0)
        assert ub_wang_global(P3P).value == pytest.approx(3.0)
        small = ub_wang_global(K2P)
        assert not small.applicable
        assert "n <= 2" in small.guard_reason

    def test_all_negative_examples(self):
        assert ub_all_negative(K3M).value == pytest.approx(4.0)
        assert ub_all_negative(K3P).value == pytest.approx(4.0)
        assert ub_all_negative(P3P).value == pytest.approx(3.0)

    def test_all_negative_equality_matches_switching_class(self):
        cases = [
            (K3M, True),   # switches to the all-negative triangle
            (K3P, False),  # lambda_max 3 against 4
            (P3P, True),   # trees switch to anything
            (K3N, True),
        ]
        for g, expect_equal in cases:
            res = ub_all_negative(g)
            lmax = spectral_radius_laplacian(g)
            is_equal = abs(res.value - lmax) < 1e-7
            assert is_equal == expect_equal
            assert switching_equivalent(g, sign_all(g, -1)).equivalent == expect_equal

    def test_interlacing_examples(self):
        assert lb_interlacing(K3M).value == pytest.approx(3.0)
        assert lb_interlacing(K3P).value == pytest.approx(3.0)
        assert lb_interlacing(K3N).value == pytest.approx(4.0)


class TestClassicBounds:
    def test_triangle_any_signature(self):
        values = {r.bound_id: r.value for r in classic_bounds(K3M)}
        for bound_id in ("KB-1", "KB-2", "KB-3", "KB-4"):
            assert values[bound_id] == pytest.approx(4.0)
        assert values["KB-5"] == pytest.approx(3.0)

    def test_path(self):
        values = {r.bound_id: r.value for r in classic_bounds(P3P)}
        assert values["KB-1"] == pytest.approx(3.0)
        assert values["KB-3"] == pytest.approx(2.0 + math.sqrt(2.0))
        assert values["KB-5"] == pytest.approx(3.0)

    def test_single_edge_kb5_equality(self):
        values = {r.bound_id: r.value for r in classic_bounds(K2P)}
        assert values["KB-5"] == pytest.approx(spectral_radius_laplacian(K2P), abs=1e-9)

    def test_kb5_star_equalities(self):
        for k in (1, 2, 3, 4):
            star = SignedGraph.from_edges(k + 1, [(1, v, 1) for v in range(2, k + 2)])
            values = {r.bound_id: r.value for r in classic_bounds(star)}
            assert values["KB-5"] == pytest.approx(k + 1.0)
            assert spectral_radius_laplacian(star) == pytest.approx(k + 1.0, abs=1e-7)

    def test_guards(self):
        for r in classic_bounds(K3P_K3N):
            assert not r.applicable and r.guard_reason == "graph not connected"
        from common import K1

        for r in classic_bounds(K1):
            assert not r.applicable and "at least one edge" in r.guard_reason


class TestUnsignedCorollaries:
    def test_triangle_equalities(self):
        values = {r.bound_id: r for r in unsigned_corollaries(K3P)}
        q_radius = spectral_radius_laplacian(sign_all(K3P, -1))
        assert values["NEQ-SLB-1"].value == pytest.approx(4.0)
        assert values["NEQ-SLB-1"].value == pytest.approx(q_radius, abs=1e-9)
        assert values["NEQ-SLB-2"].value == pytest.approx(4.0)
        assert values["NEQ-SLB-3"].value == pytest.approx(((4 * 24 + 8 * 12) / 3.0) ** CUBE)

    def test_path_delegation_equals_signed_bound(self):
        values = {r.bound_id: r for r in unsigned_corollaries(P3P)}
        assert values["UB-L"].value == ub_rank_trace(sign_all(P3P, 1)).value == pytest.approx(3.0)

    def test_ub_l_exact_on_complete_graphs(self):
        # K_n has rank r = n-1, s1 = n(n-1) and s2 = n(n-1)^2, so the integer
        # radicand (r-1)(r(s1+s2) - s1^2) is 0 and UB-L = s1/r = n exactly.
        for n in range(2, 61):
            kn = SignedGraph.from_edges(
                n, [(i, j, -1) for i in range(1, n) for j in range(i + 1, n + 1)])
            prof = degree_profile(kn)
            r = laplacian_rank(sign_all(kn, 1))
            assert r == n - 1
            assert (r - 1) * (r * (prof.s1 + prof.s2) - prof.s1 ** 2) == 0
            values = {res.bound_id: res.value for res in unsigned_corollaries(kn)}
            assert values["UB-L"] == float(n)

    def test_signs_of_input_are_ignored(self):
        for a, b in ((K3M, K3N), (P3P, P3N)):
            ra = {r.bound_id: (r.applicable, r.value) for r in unsigned_corollaries(a)}
            rb = {r.bound_id: (r.applicable, r.value) for r in unsigned_corollaries(b)}
            assert ra == rb

    def test_agrees_with_direct_formulas(self):
        graphs = random_graphs(60, base_seed=2100, n_max=10, prob_lo=0.1)
        for g in graphs:
            direct = direct_unsigned_bounds(g)
            for res in unsigned_corollaries(g):
                want = direct[res.bound_id]
                if want is None:
                    assert not res.applicable
                else:
                    assert res.applicable
                    assert abs(res.value - want) <= 1e-12

    def test_wrappers_bound_their_targets(self):
        by_id = {e.bound_id: e for e in UNSIGNED_CATALOG}
        for g in random_graphs(40, base_seed=2500, connected=True, n_max=10):
            lap_radius = spectral_radius_laplacian(sign_all(g, 1))
            q_radius = spectral_radius_laplacian(sign_all(g, -1))
            for res in unsigned_corollaries(g):
                if not res.applicable:
                    continue
                target = lap_radius if by_id[res.bound_id].target == "laplacian" else q_radius
                if res.direction == "lower":
                    assert res.value <= target + 1e-9
                else:
                    assert res.value >= target - 1e-9


class TestCatalog:
    def test_ids_unique(self):
        ids = [e.bound_id for e in SIGNED_CATALOG + UNSIGNED_CATALOG]
        assert len(ids) == len(set(ids))

    def test_every_bound_registered_once(self):
        signed_ids = [e.bound_id for e in SIGNED_CATALOG]
        assert signed_ids == [r.bound_id for r in evaluate_all(K3M).results]
        unsigned_ids = [e.bound_id for e in UNSIGNED_CATALOG]
        assert unsigned_ids == [r.bound_id for r in unsigned_corollaries(K3M)]

    def test_directions_match_results(self):
        by_id = {e.bound_id: e.direction for e in SIGNED_CATALOG + UNSIGNED_CATALOG}
        for r in list(evaluate_all(K3M).results) + list(unsigned_corollaries(K3M)):
            assert r.direction == by_id[r.bound_id]


class TestEvaluateAll:
    def test_all_negative_triangle(self):
        ev = evaluate_all(K3N)
        assert ev.lambda_max == pytest.approx(4.0, abs=1e-9)
        values = {r.bound_id: r.value for r in ev.results if r.applicable}
        for bound_id in ("LB-NET-1", "LB-NET-2", "UB-RANK", "UB-WANG-EDGE",
                         "UB-WANG-GLOBAL", "UB-ALLNEG", "LB-INTERLACE"):
            assert values[bound_id] == pytest.approx(4.0, abs=1e-7)

    def test_disconnected_guards(self):
        ev = evaluate_all(K3P_K3N)
        guarded = {r.bound_id for r in ev.results
                   if not r.applicable and r.guard_reason == "graph not connected"}
        assert {"LB-NET-1", "LB-NET-2", "LB-NET-3", "UB-WANG-EDGE",
                "UB-WANG-GLOBAL", "UB-ALLNEG", "KB-1", "KB-5"} <= guarded

    def test_edgeless_guards(self):
        ev = evaluate_all(EMPTY3)
        by_id = {r.bound_id: r for r in ev.results}
        assert not by_id["UB-RANK"].applicable
        assert "at least one edge" in by_id["UB-RANK"].guard_reason

    def test_sandwich_violation_detection(self):
        fake_low = BoundResult("FAKE-L", "lower", True, "", 10.0)
        fake_up = BoundResult("FAKE-U", "upper", True, "", 1.0)
        ok = BoundResult("FAKE-OK", "lower", True, "", 4.0)
        na = BoundResult("FAKE-NA", "upper", False, "guarded", None)
        bad = sandwich_violations((fake_low, fake_up, ok, na), 5.0, 1e-9)
        assert [(r.bound_id, round(mag, 9)) for r, mag in bad] == [("FAKE-L", 5.0), ("FAKE-U", 4.0)]

    def test_sandwich_on_random_connected(self):
        for g in random_graphs(100, base_seed=3000, connected=True):
            ev = evaluate_all(g)  # check=True raises on violation
            assert not sandwich_violations(ev.results, ev.lambda_max, 1e-9)

    def test_result_invariants(self):
        with pytest.raises(ValueError):
            BoundResult("X", "lower", True, "", None)
        with pytest.raises(ValueError):
            BoundResult("X", "lower", False, "", None)
        with pytest.raises(ValueError):
            BoundResult("X", "sideways", True, "", 1.0)
