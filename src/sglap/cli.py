"""Command-line interface.

Subcommands: bounds, spectrum, report, verify, switch-check.  The env var
SG_TOL overrides the default 1e-9 comparison tolerance; it must be a finite,
non-negative number.  Identical flags and seed produce identical output on
one machine, and at the default 3 decimals across machines.

Every command that reads edge-list files loads them with :func:`_load`, one
after another in argument order, on the calling thread, so the first input
that fails to load is the one reported; a second thread saved nothing below
inputs of a megabyte (README).  ``switch-check`` parses file a, then reads
file b by its sign bytes alone if b's bytes equal a's but for a ``+`` or
``-`` at each of a's sign bytes, as a switching of a written by the
serializer does (:func:`sglap.sgraph._resigned_twin`); any other b is
loaded like a.
"""

from __future__ import annotations

import argparse
import codecs
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from .balance import _switching_witness
from .bounds import DEFAULT_TOL, InternalInconsistencyError, evaluate_all
from .harness import (GenerationError, GeneratorConfig, format_value, render_table,
                      report, verify)
from .sgraph import GraphFormatError, SignedGraph, _parse_lines, _parse_padded
from .spectra import eigenvalues, laplacian


def _load(path: str) -> SignedGraph:
    return _parse(_read(path))


def _read(path: str) -> np.ndarray:
    """The bytes of the file at ``path``, read once into one array behind eight zero bytes."""
    with open(path, "rb") as file:
        padded = np.empty(8 + os.fstat(file.fileno()).st_size, dtype=np.uint8)
        padded[:8] = 0
        size = file.readinto(memoryview(padded)[8:])
        rest = file.read()
    padded = padded[:8 + size]
    if rest:  # a file that grew, or has no size, such as a pipe
        padded = np.concatenate((padded, np.frombuffer(rest, np.uint8)))
    return padded


def _parse(padded: np.ndarray) -> SignedGraph:
    g = _parse_padded(padded)
    return _parse_text(padded) if g is None else g


def _parse_text(padded: np.ndarray) -> SignedGraph:
    """Bytes the form check refused, decoded as a text-mode read decodes them
    ("utf-8-sig" drops a leading byte-order mark, which some editors write, and
    the first bytes of one alone read as empty text), read by the line reader."""
    return _parse_lines(codecs.getincrementaldecoder("utf-8-sig")().decode(
        padded[8:].tobytes(), final=True))


def _cmd_bounds(args, tol: float) -> int:
    g = _load(args.input)
    ev = evaluate_all(g, tol=tol)
    rows = [("lambda_max", "exact", format_value(ev.lambda_max, args.full_precision), "")]
    rows += [(r.bound_id, r.direction, format_value(r.value, args.full_precision),
              r.guard_reason) for r in ev.results]
    sys.stdout.write(render_table(("bound", "direction", "value", "guard"), rows, args.format))
    return 0


def _cmd_spectrum(args, tol: float) -> int:
    g = _load(args.input)
    spectrum = eigenvalues(laplacian(g))
    # An eigenvalue that is 0 in exact arithmetic comes back as rounding
    # residue whose digits depend on the LAPACK build; print it as 0.
    zero = g.n * sys.float_info.epsilon * spectrum[-1]
    print(" ".join("0" if abs(v) <= zero else f"{v:.6g}" for v in spectrum))
    return 0


def _cmd_report(args, tol: float) -> int:
    graphs = [_load(path) for path in args.inputs]
    names = [Path(path).stem for path in args.inputs]
    sys.stdout.write(report(graphs, fmt=args.format, names=names,
                            full_precision=args.full_precision))
    return 0


def _cmd_verify(args, tol: float) -> int:
    if args.trials < 1:
        # Zero trials check nothing, so their PASS would mean nothing.
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    cfg = GeneratorConfig(
        n=args.n,
        edge_prob=args.edge_prob,
        neg_prob=args.neg_prob,
        seed=args.seed,
        require_connected=args.require_connected,
    )
    rep = verify(cfg, args.trials, tol=tol)
    print(f"trials: {rep.trials}")
    print(f"bound violations: {len(rep.failures)}")
    print(f"identity failures: {len(rep.identity_failures)}")
    for v in rep.failures + rep.identity_failures:
        print(f"FAIL trial={v.trial} seed={v.seed} check={v.check_id} value={v.value!r} "
              f"reference={v.reference!r} off_by={v.magnitude:.3e}")
        print(f"  graph: {v.graph!r}")
    print(f"result: {'PASS' if rep.ok else 'FAIL'}")
    return 0 if rep.ok else 1


def _cmd_switch_check(args, tol: float) -> int:
    padded = _read(args.a)
    g1, resign = _parse_padded(padded, resigner=True) or (_parse_text(padded), None)
    padded = _read(args.b)
    g2 = resign and resign(padded)
    del resign  # and with it a's bytes
    theta = _switching_witness(g1, _parse(padded) if g2 is None else g2)
    print(f"switching-equivalent: {'no' if theta is None else 'yes'}")
    if theta is not None:
        # "+" and "-" flank ",": one byte per vertex, a space between two.
        line = np.full(2 * len(theta) - 1, ord(" "), dtype=np.uint8)
        line[::2] = ord(",") - theta
        print("theta: " + line.tobytes().decode("ascii"))
    return 0


# Built on the first call, not at import: each call of main reuses it, and
# importing the module stays cheap.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sglap",
        description="Signed-graph Laplacian spectra and eigenvalue bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="evaluate every bound on one graph")
    p.add_argument("--input", required=True, help="edge-list file")
    p.add_argument("--format", choices=("md", "csv"), default="md")
    p.add_argument("--full-precision", action="store_true")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("spectrum", help="print sorted Laplacian eigenvalues")
    p.add_argument("--input", required=True, help="edge-list file")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("report", help="comparison table over several graphs")
    p.add_argument("--inputs", required=True, nargs="+", help="edge-list files")
    p.add_argument("--format", choices=("md", "csv"), default="md")
    p.add_argument("--full-precision", action="store_true")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("verify", help="property run over random graphs")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--edge-prob", required=True, type=float)
    p.add_argument("--neg-prob", required=True, type=float)
    p.add_argument("--trials", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--require-connected", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("switch-check", help="switching-equivalence verdict with witness")
    p.add_argument("--a", required=True, help="first edge-list file")
    p.add_argument("--b", required=True, help="second edge-list file")
    p.set_defaults(func=_cmd_switch_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    raw_tol = os.environ.get("SG_TOL")
    try:
        tol = float(raw_tol) if raw_tol is not None else DEFAULT_TOL
    except ValueError:
        tol = math.nan
    # Every comparison against NaN is false, so a NaN tolerance would pass
    # every check; an infinite or negative one makes the checks meaningless.
    if not (math.isfinite(tol) and tol >= 0.0):
        print(f"error: SG_TOL must be a finite, non-negative number, got {raw_tol!r}",
              file=sys.stderr)
        return 2
    try:
        return args.func(args, tol)
    except (GraphFormatError, GenerationError, InternalInconsistencyError, MemoryError,
            OSError, ValueError) as exc:
        # A MemoryError usually carries no message, so name its type.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
