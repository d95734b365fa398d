"""Byte-exact CLI tables at the default 3 decimals.

``tests/golden/`` holds the stdout of ``sglap bounds`` (one file per graph)
and ``sglap report`` (all graphs, in the order of ``GRAPHS``) in markdown
and CSV.  The graphs cover a mixed and a positive connected graph, a
disconnected one and an edgeless one, so guard reasons and em dashes
appear in both formats.  Any change to a value, a guard reason, a column
or the table syntax shows up as a byte difference here.

It also holds the stdout of ``sglap switch-check`` on an equivalent pair,
whose witness line spans two components and an isolated vertex, and on a
pair with the same underlying graph and one cycle edge flipped.

Last, it holds the stdout of ``sglap spectrum`` on each graph.  That
command prints 6 significant digits and prints an eigenvalue within
n * eps * lambda_max of 0 as ``0``, so the rounding residue LAPACK leaves
at an exact zero (``-1.11022e-16`` for K3P_K3N on one build) does not
reach these files.
"""

from pathlib import Path

import pytest

from common import EMPTY3, K3M, K3P_K3N, P3P
from sglap import SignedGraph, serialize_signed_graph, switch
from sglap.cli import main

GOLDEN = Path(__file__).parent / "golden"
GRAPHS = {"K3M": K3M, "P3P": P3P, "K3P_K3N": K3P_K3N, "EMPTY3": EMPTY3}
FORMATS = ("md", "csv")

SWITCH_A = SignedGraph.from_edges(6, [(1, 2, 1), (2, 3, 1), (1, 3, -1), (4, 5, -1)])
SWITCH_B = switch(SWITCH_A, (-1, 1, -1, 1, -1, -1))
SWITCH_C = SignedGraph.from_edges(
    6, [(i, j, -s if (i, j) == (1, 2) else s) for i, j, s in SWITCH_B.edges]
)
SWITCH_PAIRS = {"eq": (SWITCH_A, SWITCH_B), "neq": (SWITCH_A, SWITCH_C)}


@pytest.fixture
def inputs(tmp_path):
    paths = {}
    for name, g in GRAPHS.items():
        path = tmp_path / f"{name}.sg"
        path.write_text(serialize_signed_graph(g), encoding="utf-8")
        paths[name] = str(path)
    return paths


def stdout_of(capsys, argv) -> str:
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and not captured.err
    return captured.out


def golden(name: str) -> str:
    return (GOLDEN / name).read_bytes().decode("utf-8")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", GRAPHS)
def test_bounds_bytes(capsys, inputs, name, fmt):
    out = stdout_of(capsys, ["bounds", "--format", fmt, "--input", inputs[name]])
    assert out == golden(f"bounds-{name}.{fmt}")


@pytest.mark.parametrize("fmt", FORMATS)
def test_report_bytes(capsys, inputs, fmt):
    out = stdout_of(capsys, ["report", "--format", fmt, "--inputs", *inputs.values()])
    assert out == golden(f"report.{fmt}")


@pytest.mark.parametrize("name", GRAPHS)
def test_spectrum_bytes(capsys, inputs, name):
    out = stdout_of(capsys, ["spectrum", "--input", inputs[name]])
    assert out == golden(f"spectrum-{name}.txt")


@pytest.mark.parametrize("name", SWITCH_PAIRS)
def test_switch_check_bytes(capsys, tmp_path, name):
    paths = []
    for side, g in zip("ab", SWITCH_PAIRS[name]):
        path = tmp_path / f"{side}.sg"
        path.write_text(serialize_signed_graph(g), encoding="utf-8")
        paths.append(str(path))
    out = stdout_of(capsys, ["switch-check", "--a", paths[0], "--b", paths[1]])
    assert out == golden(f"switch-{name}.txt")
