"""Seeded random signed-graph generation, bulk verification, and reports.

The generator is built on splitmix64 so that a (config, seed) pair pins the
exact graph across platforms and implementations; the draw order is part of
the contract and documented on :func:`generate`.  ``verify`` generates,
scores and solves its trials as batches (``sgraph._Union``), and runs each
of its checks as one mask over a batch: it builds a :class:`Violation`, and
writes out a graph, only for a trial that fails.  ``report`` formats its
cells straight from the catalog's value matrix (``bounds._scores``).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .balance import _balance_counts
from .bounds import (
    DEFAULT_TOL,
    LOWER,
    SIGNED_CATALOG,
    InternalInconsistencyError,
    _batch_facts,
    _CATALOG,
    _Negative,
    _scores,
)
from .sgraph import _BATCH_ELEMENTS, SignedGraph, _Union, serialize_signed_graph
from .spectra import _eigvalsh, _exact_traces, _laplacians, sign_all

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
# splitmix64's state increment and output mix, as numpy scalars.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = ((np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)), (np.uint64(27), np.uint64(0x94D049BB133111EB)))
_LAST_SHIFT = np.uint64(31)
CONNECTIVITY_CAP = 10_000
# Largest order generate accepts.  It draws once per vertex pair, 5*10^7
# draws at 10^4 vertices, and verify then solves dense float64 matrices of
# 0.8 GB each; the parser's far larger MAX_VERTICES bounds memory, not this
# O(n^2) scan.
MAX_GENERATED_VERTICES = 10_000
RANK_TOL = 1e-8
# A column of the catalog's rows: True for a lower bound.
_LOWER_ROWS = np.array([[row.direction == LOWER] for row in _CATALOG])
# Pair draws up to which a round of connectivity retries costs more in numpy
# call overhead than in draws: only rounds this small draw several attempts.
_SMALL_ROUND = 1 << 15


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

    splitmix64 is counter-based, its k-th state being seed + k * 0x9E3779B97F4A7C15
    (mod 2^64), so the draws are computed as arrays: the stream position
    after a run of r accepted draws that follows a rejected one (or a
    scan's start) is a pair draw iff r is even.  ``verify`` generates all its
    trials this way at once; ``generate`` is a batch of one.

    Raises:
        GenerationError: the connectivity cap was exhausted.
    """
    return _generate(cfg, [cfg.seed]).graph(0)


def _splitmix(seeds: np.ndarray, start: np.ndarray, count: int) -> np.ndarray:
    """uint64 outputs ``start + 1`` to ``start + count`` of the splitmix64
    stream of each of ``seeds`` (uint64), one row per stream, as
    :class:`SplitMix64` draws them; ``start`` holds int64 positions."""
    z = start.astype(np.uint64)[:, None] + np.arange(1, count + 1, dtype=np.uint64)
    z *= _GAMMA
    z += seeds[:, None]
    for shift, factor in _MIX:
        z ^= z >> shift
        z *= factor
    z ^= z >> _LAST_SHIFT
    return z


def _uniforms(z: np.ndarray) -> np.ndarray:
    return (z >> np.uint64(11)) * 2.0 ** -53


def _scan(cfg: GeneratorConfig, seeds: np.ndarray, start: np.ndarray, scans: int):
    """``scans`` scans of every vertex pair on each stream, from its position
    in ``start``, chained as one longer scan (a scan ends before a pair draw):
    ``(row, pair, negative)`` of the accepted pairs, by row then pair (scan s
    numbers its pairs on from s times the pair count), and each stream's
    position after them.  Streams advance in blocks of at most
    ``_BATCH_ELEMENTS`` draws in all."""
    total = scans * (cfg.n * (cfg.n - 1) // 2)
    done, start = np.zeros(len(seeds), dtype=np.int64), start.copy()
    found = []
    while (active := (done < total).nonzero()[0]).size:
        left = total - done[active]
        width = min(2 * int(np.maximum.reduce(left)), max(2, _BATCH_ELEMENTS // active.size))
        # One draw past the block, so an accepted pair's sign draw is in it.
        u = _uniforms(_splitmix(seeds[active], start[active], width + 1))
        hit = u[:, :width] < cfg.edge_prob
        at = np.arange(width)
        last_miss = np.maximum.accumulate(np.where(hit, -1, at), axis=1)
        before = np.empty_like(last_miss)  # the last miss before each draw
        before[:, 0] = -1
        before[:, 1:] = last_miss[:, :-1]
        pair_draw = (at - before) % 2 == 1  # the block starts on a pair draw
        rank = pair_draw.cumsum(axis=1)
        take = pair_draw & (rank <= left[:, None])
        r, p = (take & hit).nonzero()
        found.append((active[r], done[active][r] + rank[r, p] - 1, u[r, p + 1] < cfg.neg_prob))
        last = width - 1 - take[:, ::-1].argmax(axis=1)
        start[active] += last + 1 + hit[np.arange(active.size), last]
        done[active] += np.add.reduce(take, axis=1)
    if not found:
        return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, bool), start
    return (*_by_row(found), start)


def _by_row(parts) -> tuple[np.ndarray, ...]:
    """The concatenated (row, pair, negative) arrays of ``parts``, each
    sorted by row then pair, in that order."""
    row, pair, negative = (np.concatenate(x) for x in zip(*parts))
    if len(parts) > 1:
        order = np.argsort(row, kind="stable")
        row, pair, negative = row[order], pair[order], negative[order]
    return row, pair, negative


def _pairs_union(n: int, graphs: int, row, pair, negative) -> _Union:
    """The union of ``graphs`` graphs of order n whose edges are the given
    (row, pair number, negative) triples, sorted by row then pair."""
    first = np.arange(n - 1)
    starts = first * (2 * n - 1 - first) // 2  # pairs scanned before vertex first + 1's
    i = np.searchsorted(starts, pair, side="right") - 1
    j = pair - starts[i] + i + 1
    return _Union(np.full(graphs, n), np.bincount(row, minlength=graphs), row * n + i,
                  row * n + j, np.where(negative, -1, 1))


def _generate(cfg: GeneratorConfig, seeds) -> _Union:
    """The graphs ``generate(replace(cfg, seed=s))`` for each s in ``seeds``,
    as one union.  Without require_connected that is one scan per stream.
    With it, each round draws k attempts of every pending stream as one
    batch and keeps each stream's first connected one; the rest draw again
    from where their scans ended.  k doubles per round, within the attempts
    left and ``_SMALL_ROUND`` pair draws per round."""
    streams = np.array([s & _MASK64 for s in seeds], dtype=np.uint64)
    start = np.zeros(len(seeds), dtype=np.int64)
    if not cfg.require_connected:
        return _pairs_union(cfg.n, len(seeds), *_scan(cfg, streams, start, 1)[:3])
    pending, kept = np.arange(len(seeds)), []
    pairs = max(1, cfg.n * (cfg.n - 1) // 2)  # 1 at n = 1, which draws none
    attempts = CONNECTIVITY_CAP
    done, k = 0, 1
    while pending.size:
        if done == attempts:
            raise GenerationError(attempts)
        k = min(k, attempts - done, max(1, _SMALL_ROUND // (pending.size * pairs)))
        row, pair, negative, start[pending] = _scan(cfg, streams[pending], start[pending], k)
        # Attempt a of pending stream r is graph r * k + a of the round.
        attempt, pair = np.divmod(pair, pairs)
        graph = row * k + attempt
        # Fewer than n - 1 edges cannot connect n vertices.
        ok = np.bincount(graph, minlength=pending.size * k) >= cfg.n - 1
        if ok.any():
            ok &= _balance_counts(_pairs_union(cfg.n, ok.size, graph, pair, negative))[0] == 1
        ok = ok.reshape(-1, k)
        found = ok.any(axis=1)
        keep = found[row] & (attempt == ok.argmax(axis=1)[row])
        kept.append((pending[row[keep]], pair[keep], negative[keep]))
        pending = pending[~found]
        done, k = done + k, 2 * k
    return _pairs_union(cfg.n, len(seeds), *_by_row(kept))


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


def verify(cfg: GeneratorConfig, trials: int, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Run every bound and identity check on ``trials`` random graphs.

    Per trial: the full bound sandwich (every applicable lower bound at most
    lambda_max + tol and every applicable upper at least lambda_max - tol,
    interlacing included via its catalog entry); the three closed-form trace
    identities against exact matrix products; the rank identity (eigenvalue
    count above RANK_TOL equals n minus balanced components); and spectrum
    invariance under a random switching.  Each check is one comparison over
    a batch's value matrix or stacked spectra.  Failed checks are returned
    as data.  The identity checks read one float64 stack per batch, each
    trial's switched Laplacian L(g^theta) = Theta L Theta: its spectra, and
    its exact traces, which equal L's as Theta^2 = I.

    Trial k (from 0) takes the (2k+1)-th output of the splitmix64 stream
    seeded with cfg.seed as its graph seed and the (2k+2)-th as its
    switching seed; the switching is -1 at vertex v when the v-th uniform of
    that seed's stream falls below 0.5.  The trials run as batches
    (:func:`_generate`, ``bounds._batch_facts``), as many per batch as keep
    its five matrices per trial within ``_BATCH_ELEMENTS`` entries.

    Raises:
        ValueError: ``trials`` is below 1, or ``tol`` is NaN or infinite;
            zero trials check nothing, NaN fails every comparison and +inf
            passes every one, so the report would be a vacuous pass.
        InternalInconsistencyError: a bound asserted an identity the theory
            guarantees; the message names the trial and its graph seed.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol!r}")
    failures: list[Violation] = []
    identity: list[Violation] = []
    stream = np.array([cfg.seed & _MASK64], dtype=np.uint64)
    size = max(1, _BATCH_ELEMENTS // (5 * cfg.n * cfg.n))
    for first in range(0, trials, size):
        seeds = _splitmix(stream, np.array([2 * first]), 2 * min(size, trials - first))[0]
        g_seeds, th_streams = seeds[0::2].tolist(), seeds[1::2]
        u = _generate(cfg, g_seeds)
        theta = np.where(_uniforms(_splitmix(th_streams, np.zeros(len(th_streams), np.int64),
                                             cfg.n)) < 0.5, -1, 1).ravel()
        f = _batch_facts(u)
        try:
            values, applicable = _scores(f)
        except _Negative as exc:
            raise InternalInconsistencyError(
                f"trial={first + exc.graph} seed={g_seeds[exc.graph]}: {exc}") from exc
        # Each check as a mask over the batch.
        lmax, spectra = f.lambda_max, f.spectra.reshape(len(g_seeds), cfg.n)
        sandwich = applicable & np.where(_LOWER_ROWS, values > lmax + tol, values < lmax - tol)
        # Theta L Theta has L's spectrum and traces: one stack serves both.
        weight = theta[u.i] * u.sign * theta[u.j]
        switched = _laplacians(u, np.arange(len(g_seeds)), weight[None])[0]
        switch_diff = np.abs(spectra - _eigvalsh(switched)).max(axis=1)
        matrix_traces, want = _exact_traces(switched), np.array((f.p1, f.p2, f.p3)).T
        del switched  # freed before the next batch is built
        traces = matrix_traces != want
        num_rank = (spectra > RANK_TOL).sum(axis=1)
        rank = num_rank != f.rank
        switching = switch_diff > tol
        failed = sandwich.any(axis=0) | traces.any(axis=1) | rank | switching
        if not failed.any():
            continue
        # (target, check_id, mask, value, reference, magnitude) rows over the
        # batch; integer magnitudes are exact before they become floats.
        over = np.where(_LOWER_ROWS, values - lmax, lmax - values)
        checks = [(failures, bound_id, sandwich[k], values[k], lmax, over[k])
                  for k, bound_id in enumerate(SIGNED_CATALOG)]
        checks += [(identity, f"trace-{k + 1}", traces[:, k], matrix_traces[:, k], want[:, k],
                    abs(matrix_traces[:, k] - want[:, k])) for k in range(3)]
        checks += [(identity, "rank", rank, num_rank, f.rank, abs(num_rank - f.rank)),
                   (identity, "switching", switching, switch_diff, np.zeros(len(lmax)),
                    switch_diff)]
        texts = {b: serialize_signed_graph(u.graph(b)) for b in failed.nonzero()[0].tolist()}
        for target, check_id, mask, *columns in checks:
            at = mask.nonzero()[0]
            for b, *v in zip(at.tolist(), *(column[at].tolist() for column in columns)):
                target.append(Violation(first + b, g_seeds[b], texts[b], check_id, *map(float, v)))

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
    variants = [v for g in graphs for v in (g, sign_all(g, 1), sign_all(g, -1))]
    if not variants:
        return render_table(header, [], fmt)
    f = _batch_facts(_Union.of(variants))
    values, applicable = _scores(f)
    cells = np.vstack((f.lambda_max, values)).astype(object)
    cells[1:][~applicable] = None
    return render_table(header, [[names[k // 3], _VARIANTS[k % 3],
                                  *(format_value(v, full_precision) for v in column)]
                                 for k, column in enumerate(cells.T.tolist())], fmt)
