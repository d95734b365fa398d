"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; they are also flushed into the captured output on failure.
"""

import time

import pytest

from common import (
    K3N,
    K3P,
    P3P,
    STAR3P,
    direct_unsigned_bounds,
    oracle_rayleigh,
    random_graphs,
)
from sglap import (
    SIGNED_CATALOG,
    GeneratorConfig,
    SplitMix64,
    degree_profile,
    eigenvalues,
    evaluate_all,
    generate,
    laplacian,
    laplacian_rank,
    rayleigh_moment,
    sandwich_violations,
    sign_all,
    switch,
    switching_equivalent,
    trace_moment,
    triangle_stats,
    unsigned_corollaries,
)

RANK_TOL = 1e-8


def _finish(num, name, failures, elapsed=None, budget=None):
    ok = not failures and (budget is None or elapsed < budget)
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if elapsed is not None:
        line += f"  [{elapsed:.1f}s]"
    print(line, flush=True)
    assert not failures, f"{len(failures)} failures; first: {failures[0]}"
    if budget is not None:
        assert elapsed < budget, f"took {elapsed:.1f}s, budget {budget}s"


@pytest.fixture(scope="module")
def corpus_500():
    return random_graphs(500, base_seed=10_000, n_max=12, n_min=1, prob_lo=0.2, prob_hi=0.8)


@pytest.fixture(scope="module")
def corpus_mixed_500():
    # sparse probabilities so plenty of disconnected graphs occur
    return random_graphs(500, base_seed=20_000, n_max=12, n_min=1,
                         prob_lo=0.05, prob_hi=0.6)


def test_01_trace_identities(corpus_500):
    start = time.perf_counter()
    failures = []
    for g in corpus_500:
        prof = degree_profile(g)
        tri = triangle_stats(g)
        lap = laplacian(g)
        checks = (
            (1, prof.s1),
            (2, prof.s2 + prof.s1),
            (3, prof.s3 + 3 * prof.s2 - 6 * tri.t_net),
        )
        for k, want in checks:
            got = trace_moment(lap, k)
            if got != want:
                failures.append((g, k, got, want))
    _finish(1, "trace identities", failures,
            elapsed=time.perf_counter() - start, budget=10.0)


def test_02_rayleigh_identities(corpus_500):
    failures = []
    for g in corpus_500:
        for k in (1, 2, 3):
            closed = rayleigh_moment(g, k)
            product = oracle_rayleigh(g, k)
            if closed != product:
                failures.append((g, k, closed, product))
    _finish(2, "Rayleigh-moment identities", failures)


def test_03_rank_identity(corpus_mixed_500):
    failures = []
    disconnected = 0
    for g in corpus_mixed_500:
        spec = eigenvalues(laplacian(g))
        numerical = sum(1 for v in spec if v > RANK_TOL)
        combinatorial = laplacian_rank(g)
        if numerical != combinatorial:
            failures.append((g, numerical, combinatorial))
        from sglap import is_connected

        if not is_connected(g):
            disconnected += 1
    assert disconnected > 50, "corpus must include disconnected graphs"
    _finish(3, "rank identity", failures)


def test_04_sandwich_property():
    lower_ids = {"LB-NET-1", "LB-NET-2", "LB-NET-3", "LB-TR-1", "LB-TR-2",
                 "LB-TR-3", "LB-INTERLACE", "KB-5"}
    upper_ids = {"UB-RANK", "UB-WANG-EDGE", "UB-WANG-GLOBAL", "UB-ALLNEG",
                 "KB-1", "KB-2", "KB-3", "KB-4"}
    assert lower_ids | upper_ids == set(SIGNED_CATALOG)
    start = time.perf_counter()
    failures = []
    for t in range(1000):
        cfg = GeneratorConfig(
            n=2 + (t % 11),
            edge_prob=0.2 + 0.6 * ((t % 7) / 6.0),
            neg_prob=0.5,
            seed=30_000 + t,
            require_connected=True,
        )
        g = generate(cfg)
        ev = evaluate_all(g, check=False)
        assert {r.bound_id for r in ev.results} == lower_ids | upper_ids
        for res, magnitude in sandwich_violations(ev.results, ev.lambda_max, 1e-9):
            failures.append((g, res.bound_id, res.value, ev.lambda_max, magnitude))
    _finish(4, "sandwich property", failures,
            elapsed=time.perf_counter() - start, budget=60.0)


def test_05_equality_cases():
    failures = []

    def expect(graph, results, bound_id, want):
        by_id = {r.bound_id: r for r in results}
        res = by_id[bound_id]
        if not res.applicable or abs(res.value - want) > 1e-7:
            failures.append((bound_id, res, want))

    ev_k3n = evaluate_all(K3N, check=False)
    for bid in ("LB-NET-1", "LB-NET-2", "LB-NET-3", "UB-RANK",
                "UB-WANG-EDGE", "UB-WANG-GLOBAL", "UB-ALLNEG"):
        expect(K3N, ev_k3n.results, bid, 4.0)
    if abs(ev_k3n.lambda_max - 4.0) > 1e-7:
        failures.append(("lambda_max(K3N)", ev_k3n.lambda_max, 4.0))

    ev_p3p = evaluate_all(P3P, check=False)
    for bid in ("UB-RANK", "UB-WANG-EDGE", "UB-WANG-GLOBAL", "KB-1", "KB-5"):
        expect(P3P, ev_p3p.results, bid, 3.0)

    ev_k3p = evaluate_all(K3P, check=False)
    for bid in ("LB-TR-1", "LB-TR-3"):
        expect(K3P, ev_k3p.results, bid, 3.0)

    wrappers = unsigned_corollaries(K3P)
    q_radius = eigenvalues(laplacian(sign_all(K3P, -1)))[-1]
    expect(K3P, wrappers, "NEQ-SLB-1", 4.0)
    expect(K3P, wrappers, "NEQ-SLB-1", q_radius)

    _finish(5, "equality cases", failures)


def test_06_switching_invariance(corpus_500):
    failures = []
    rng = SplitMix64(60_001)
    for g in corpus_500:
        theta = tuple(-1 if rng.next_float() < 0.5 else 1 for _ in range(g.n))
        switched = switch(g, theta)
        before = eigenvalues(laplacian(g))
        after = eigenvalues(laplacian(switched))
        diff = max(abs(a - b) for a, b in zip(before, after))
        if diff > 1e-9:
            failures.append((g, theta, "spectrum", diff))
        verdict = switching_equivalent(g, switched)
        if not verdict.equivalent:
            failures.append((g, theta, "equivalence", None))
        elif switch(g, verdict.witness) != switched:
            failures.append((g, theta, "witness", verdict.witness))
    _finish(6, "switching invariance", failures)


def test_07_all_negative_equality_characterization():
    failures = []
    branch = {True: 0, False: 0}
    for t in range(500):
        cfg = GeneratorConfig(
            n=2 + (t % 9),
            edge_prob=0.3 + 0.5 * ((t % 5) / 4.0),
            neg_prob=0.5,
            seed=70_000 + t,
            require_connected=True,
        )
        g = generate(cfg)
        if t % 2:
            # forced-equivalent branch: a switched all-negative graph
            rng = SplitMix64(90_000 + t)
            theta = tuple(-1 if rng.next_float() < 0.5 else 1 for _ in range(g.n))
            g = switch(sign_all(g, -1), theta)
        close = abs(
            eigenvalues(laplacian(g))[-1]
            - eigenvalues(laplacian(sign_all(g, -1)))[-1]
        ) < 1e-7
        equivalent = switching_equivalent(g, sign_all(g, -1)).equivalent
        branch[equivalent] += 1
        if close != equivalent:
            failures.append((g, close, equivalent))
    assert branch[True] > 50 and branch[False] > 50, f"one-sided corpus: {branch}"
    _finish(7, "all-negative equality characterization", failures)


def test_08_eigensolver_oracle():
    expected = {
        "K3P": (K3P, (0.0, 3.0, 3.0)),
        "K3N": (K3N, (1.0, 1.0, 4.0)),
        "P3P": (P3P, (0.0, 1.0, 3.0)),
        "STAR3P": (STAR3P, (0.0, 1.0, 1.0, 4.0)),
    }
    failures = []
    for name, (g, want) in expected.items():
        got = eigenvalues(laplacian(g))
        if len(got) != len(want) or any(abs(a - b) > 1e-9 for a, b in zip(got, want)):
            failures.append((name, got, want))
    _finish(8, "eigensolver oracle", failures)


def test_09_unsigned_wrapper_consistency():
    failures = []
    graphs = random_graphs(200, base_seed=80_000, n_max=12, n_min=1,
                           prob_lo=0.1, prob_hi=0.8)
    for g in graphs:
        direct = direct_unsigned_bounds(g)
        for res in unsigned_corollaries(g):
            want = direct[res.bound_id]
            if want is None:
                if res.applicable:
                    failures.append((g, res.bound_id, "applicability", res.value))
            elif not res.applicable:
                failures.append((g, res.bound_id, "applicability", want))
            elif abs(res.value - want) > 1e-12:
                failures.append((g, res.bound_id, res.value, want))
    _finish(9, "unsigned wrapper consistency", failures)
