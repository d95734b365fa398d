"""Seeded random signed-graph generation, bulk verification, and reports.

The generator is built on splitmix64 so that a (config, seed) pair pins the
exact graph across platforms and implementations; the draw order is part of
the contract and documented on :func:`generate`.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace

from .balance import is_connected, laplacian_rank, switch
from .bounds import (
    DEFAULT_TOL,
    SIGNED_CATALOG,
    InternalInconsistencyError,
    evaluate_all,
    sandwich_violations,
)
from .sgraph import SignedGraph, serialize_signed_graph
from .spectra import eigenvalues, laplacian, power_traces, sign_all, trace_moment

__all__ = [
    "SplitMix64",
    "GeneratorConfig",
    "GenerationError",
    "Violation",
    "VerificationReport",
    "CONNECTIVITY_CAP",
    "RANK_TOL",
    "generate",
    "verify",
    "report",
]

_MASK64 = (1 << 64) - 1
CONNECTIVITY_CAP = 10_000
# Largest order generate accepts.  It draws once per vertex pair, 5*10^7
# draws at 10^4 vertices, and verify then solves dense float64 matrices of
# 0.8 GB each; the parser's far larger MAX_VERTICES bounds memory, not this
# O(n^2) scan.
MAX_GENERATED_VERTICES = 10_000
RANK_TOL = 1e-8


class SplitMix64:
    """splitmix64: 64-bit state s advances by 0x9E3779B97F4A7C15 per draw;
    the output mixes the new state as
        z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9;
        z ^= z >> 27;  z *= 0x94D049BB133111EB;
        z ^= z >> 31.
    Floats take the top 53 output bits scaled by 2^-53, uniform in [0, 1).
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53


class GenerationError(RuntimeError):
    """Connectivity rejection sampling ran out of attempts."""

    def __init__(self, attempts: int):
        super().__init__(f"no connected graph after {attempts} attempts; "
                         "raise edge_prob or drop require_connected")
        self.attempts = attempts


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters for one random signed graph; generation is pure in these."""

    n: int
    edge_prob: float
    neg_prob: float
    seed: int
    require_connected: bool = False

    def __post_init__(self):
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if self.n > MAX_GENERATED_VERTICES:
            raise ValueError(f"n {self.n} exceeds the limit {MAX_GENERATED_VERTICES}")
        if not 0.0 <= self.edge_prob <= 1.0:
            raise ValueError(f"edge_prob must lie in [0, 1], got {self.edge_prob!r}")
        if not 0.0 <= self.neg_prob <= 1.0:
            raise ValueError(f"neg_prob must lie in [0, 1], got {self.neg_prob!r}")


def generate(cfg: GeneratorConfig) -> SignedGraph:
    """Random signed graph with independent edges and signs, seeded exactly.

    One splitmix64 stream is seeded with cfg.seed.  Vertex pairs are scanned
    in lexicographic order (1,2), (1,3), ..., (2,3), ...; each pair draws one
    uniform and is included when it falls below edge_prob, in which case a
    second uniform immediately follows and the sign is -1 when it falls
    below neg_prob.  With require_connected the scan repeats on the same
    stream until the sample is connected, up to CONNECTIVITY_CAP attempts.

    Raises:
        GenerationError: the connectivity cap was exhausted.
    """
    rng = SplitMix64(cfg.seed)
    attempts = CONNECTIVITY_CAP if cfg.require_connected else 1
    for _ in range(attempts):
        edges = []
        for i in range(1, cfg.n):
            for j in range(i + 1, cfg.n + 1):
                if rng.next_float() < cfg.edge_prob:
                    sign = -1 if rng.next_float() < cfg.neg_prob else 1
                    edges.append((i, j, sign))
        g = SignedGraph(cfg.n, frozenset(edges))
        if not cfg.require_connected or is_connected(g):
            return g
    raise GenerationError(attempts)


@dataclass(frozen=True)
class Violation:
    """One failed check: the trial, its graph seed and graph, the check id,
    and how far off it was.  ``generate(replace(cfg, seed=seed))`` rebuilds
    the graph."""

    trial: int
    seed: int
    graph: str
    check_id: str
    value: float
    reference: float
    magnitude: float


@dataclass(frozen=True)
class VerificationReport:
    trials: int
    failures: tuple[Violation, ...]
    identity_failures: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.failures and not self.identity_failures


def _random_switching(rng: SplitMix64, n: int) -> tuple[int, ...]:
    return tuple(-1 if rng.next_float() < 0.5 else 1 for _ in range(n))


def verify(cfg: GeneratorConfig, trials: int, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Run every bound and identity check on ``trials`` random graphs.

    Per trial: the full bound sandwich (every applicable lower bound at most
    lambda_max + tol and every applicable upper at least lambda_max - tol,
    interlacing included via its catalog entry); the three closed-form trace
    identities against exact matrix products; the rank identity (eigenvalue
    count above RANK_TOL equals n minus balanced components); and spectrum
    invariance under a random switching.  Failed checks are returned as data.

    Raises:
        ValueError: ``trials`` is below 1; zero trials check nothing, so
            their report would be a vacuous pass.
        InternalInconsistencyError: a bound asserted an identity the theory
            guarantees; the message names the trial and its graph seed.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    failures: list[Violation] = []
    identity: list[Violation] = []
    seed_stream = SplitMix64(cfg.seed)
    for trial in range(trials):
        g_seed = seed_stream.next_u64()
        th_seed = seed_stream.next_u64()
        g = generate(replace(cfg, seed=g_seed))
        # (check_id, value, reference, magnitude); the graph text is made
        # only for a trial that has something to report.
        bad: list[tuple[str, float, float, float]] = []
        bad_identity: list[tuple[str, float, float, float]] = []

        try:
            ev = evaluate_all(g, tol=tol, check=False)
        except InternalInconsistencyError as exc:
            raise InternalInconsistencyError(f"trial={trial} seed={g_seed}: {exc}") from exc
        lmax = ev.lambda_max
        for res, magnitude in sandwich_violations(ev.results, lmax, tol):
            bad.append((res.bound_id, res.value, lmax, magnitude))

        lap = laplacian(g)
        for k, want in enumerate(power_traces(g), start=1):
            got = trace_moment(lap, k)
            if got != want:
                bad_identity.append((f"trace-{k}", float(got), float(want),
                                     float(abs(got - want))))

        num_rank = sum(1 for v in ev.spectrum if v > RANK_TOL)
        want_rank = laplacian_rank(g)
        if num_rank != want_rank:
            bad_identity.append(("rank", float(num_rank), float(want_rank),
                                 float(abs(num_rank - want_rank))))

        th = _random_switching(SplitMix64(th_seed), g.n)
        switched = eigenvalues(laplacian(switch(g, th)))
        diff = max(abs(a - b) for a, b in zip(ev.spectrum, switched))
        if diff > tol:
            bad_identity.append(("switching", diff, 0.0, diff))

        if bad or bad_identity:
            text = serialize_signed_graph(g)
            failures += [Violation(trial, g_seed, text, *v) for v in bad]
            identity += [Violation(trial, g_seed, text, *v) for v in bad_identity]

    failures.sort(key=lambda v: (v.trial, v.check_id))
    identity.sort(key=lambda v: (v.trial, v.check_id))
    return VerificationReport(trials, tuple(failures), tuple(identity))


def format_value(v: float | None, full_precision: bool = False) -> str:
    """Table cell for a value: 3 decimals or the exact double, and an em
    dash for ``None``, the value of an inapplicable bound."""
    if v is None:
        return "—"
    return repr(float(v)) if full_precision else f"{v:.3f}"


def render_table(header, rows, fmt: str) -> str:
    """Markdown (``fmt="md"``, each ``|`` in a cell escaped) or CSV (``fmt="csv"``)
    text of a table of string cells, one LF-terminated line per row, header first."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    if fmt != "md":
        raise ValueError(f"format must be 'md' or 'csv', got {fmt!r}")
    lines = [header, ["---"] * len(header), *rows]
    return "".join("| " + " | ".join(cell.replace("|", "\\|") for cell in cells) + " |\n"
                   for cells in lines)


_VARIANTS = ("Σ", "(Γ,+1)", "(Γ,-1)")


def report(
    graphs,
    fmt: str = "md",
    names=None,
    full_precision: bool = False,
) -> str:
    """Comparison table: one row per graph per signature variant.

    Rows cover the graph as given, its all-positive signing, and its
    all-negative signing; columns are lambda_max followed by the signed
    bound catalog in order, rounded to 3 decimals (or full precision).
    Inapplicable bounds render as an em dash.
    """
    if names is None:
        names = [f"G{k}" for k in range(1, len(graphs) + 1)]
    if len(names) != len(graphs):
        raise ValueError("need exactly one name per graph")
    header = ["graph", "variant", "lambda_max"] + list(SIGNED_CATALOG)
    rows = []
    for name, g in zip(names, graphs):
        variants = (g, sign_all(g, 1), sign_all(g, -1))
        for label, variant in zip(_VARIANTS, variants):
            ev = evaluate_all(variant, check=False)
            values = (ev.lambda_max, *(r.value for r in ev.results))
            rows.append([name, label, *(format_value(v, full_precision) for v in values)])
    return render_table(header, rows, fmt)
