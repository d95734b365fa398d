"""Byte-exact CLI tables at the default 3 decimals.

``tests/golden/`` holds the stdout of ``sglap bounds`` (one file per graph)
and ``sglap report`` (all graphs, in the order of ``GRAPHS``) in markdown
and CSV.  The graphs cover a mixed and a positive connected graph, a
disconnected one and an edgeless one, so guard reasons and em dashes
appear in both formats.  Any change to a value, a guard reason, a column
or the table syntax shows up as a byte difference here.
"""

from pathlib import Path

import pytest

from common import EMPTY3, K3M, K3P_K3N, P3P
from sglap import serialize_signed_graph
from sglap.cli import main

GOLDEN = Path(__file__).parent / "golden"
GRAPHS = {"K3M": K3M, "P3P": P3P, "K3P_K3N": K3P_K3N, "EMPTY3": EMPTY3}
FORMATS = ("md", "csv")


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
