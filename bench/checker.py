"""Independent checks of sglap CLI output.

Nothing here calls sglap.  Laplacians are built from the benchmark's own
edge lists and solved with ``numpy.linalg.eigvalsh``; connectivity and
balance come from a fresh breadth-first search.  Printed values are
compared at the 3-decimal rounding the CLI prints, never byte for byte at
full precision, so a solver change that moves the last ulp still passes.

Each ``check_*`` returns ``None`` when the output is right, or a reason.
``mutations`` corrupts a right output in ways every check must reject.
"""

from __future__ import annotations

import csv
import io
from collections import deque

import numpy as np

from corpus import Graph, switched

# A printed value is v rounded to 3 decimals, so it sits within ROUND of v;
# SLACK absorbs sglap's 1e-9 sandwich tolerance and solver rounding.
ROUND = 5e-4
SLACK = 1e-6
DASH = "—"

LOWER, UPPER = "lower", "upper"
BOUND_IDS = (
    ("LB-NET-1", LOWER), ("LB-NET-2", LOWER), ("LB-NET-3", LOWER),
    ("UB-WANG-EDGE", UPPER), ("UB-WANG-GLOBAL", UPPER), ("UB-RANK", UPPER),
    ("LB-TR-1", LOWER), ("LB-TR-2", LOWER), ("LB-TR-3", LOWER),
    ("UB-ALLNEG", UPPER), ("LB-INTERLACE", LOWER),
    ("KB-1", UPPER), ("KB-2", UPPER), ("KB-3", UPPER), ("KB-4", UPPER), ("KB-5", LOWER),
)
VARIANTS = ("Σ", "(Γ,+1)", "(Γ,-1)")


class Facts:
    """What the checker knows about one graph: lambda_max and which bounds apply."""

    def __init__(self, g: Graph):
        lap = np.zeros((g.n, g.n))
        for i, j, s in g.edges:
            lap[i - 1, j - 1] = lap[j - 1, i - 1] = -s
            lap[i - 1, i - 1] += 1
            lap[j - 1, j - 1] += 1
        self.lambda_max = float(np.linalg.eigvalsh(lap)[-1])
        comps, balanced = _balance(g)
        connected = comps == 1
        rank = g.n - balanced
        conn_edge = connected and len(g.edges) > 0
        # The applicability pattern of the bound catalog at the seed commit.
        self.applies = {
            "LB-NET-1": connected, "LB-NET-2": connected, "LB-NET-3": connected,
            "UB-WANG-EDGE": conn_edge, "UB-WANG-GLOBAL": connected and g.n > 2,
            "UB-RANK": len(g.edges) > 0,
            "LB-TR-1": rank >= 2, "LB-TR-2": rank >= 3, "LB-TR-3": rank >= 2,
            "UB-ALLNEG": connected, "LB-INTERLACE": True,
            "KB-1": conn_edge, "KB-2": conn_edge, "KB-3": conn_edge,
            "KB-4": conn_edge, "KB-5": conn_edge,
        }


def _balance(g: Graph) -> tuple[int, int]:
    """(component count, balanced component count) by sign propagation."""
    adj = [[] for _ in range(g.n + 1)]
    for i, j, s in g.edges:
        adj[i].append((j, s))
        adj[j].append((i, s))
    theta = [0] * (g.n + 1)
    comps = balanced = 0
    for root in range(1, g.n + 1):
        if theta[root]:
            continue
        comps += 1
        ok = True
        theta[root] = 1
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, s in adj[u]:
                if not theta[v]:
                    theta[v] = s * theta[u]
                    queue.append(v)
                elif theta[v] != s * theta[u]:
                    ok = False
        balanced += ok
    return comps, balanced


def signed_all(g: Graph, sign: int) -> Graph:
    return Graph(g.n, tuple((i, j, sign) for i, j, _ in g.edges))


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _check_row(facts: Facts, lam_cell: str, cells: dict[str, str]) -> str | None:
    lam = _number(lam_cell)
    if lam is None or abs(lam - facts.lambda_max) > ROUND + SLACK:
        return f"lambda_max {lam_cell!r} != {facts.lambda_max:.6f}"
    for bound_id, direction in BOUND_IDS:
        cell = cells[bound_id]
        if (cell != DASH) != facts.applies[bound_id]:
            return f"{bound_id}: cell {cell!r} but applicable={facts.applies[bound_id]}"
        if cell == DASH:
            continue
        v = _number(cell)
        if v is None:
            return f"{bound_id}: unreadable value {cell!r}"
        if direction == LOWER and v > facts.lambda_max + ROUND + SLACK:
            return f"{bound_id}: lower bound {v} above lambda_max {facts.lambda_max:.6f}"
        if direction == UPPER and v < facts.lambda_max - ROUND - SLACK:
            return f"{bound_id}: upper bound {v} below lambda_max {facts.lambda_max:.6f}"
    return None


def check_bounds(facts: Facts, out: str) -> str | None:
    """``bounds`` markdown table: exact lambda_max, sandwich, guards, directions."""
    lines = out.splitlines()
    if len(lines) != 3 + len(BOUND_IDS):
        return f"expected {3 + len(BOUND_IDS)} table lines, got {len(lines)}"
    rows = [line.strip("|").split("|") for line in lines]
    rows = [[c.strip() for c in row] for row in rows]
    if rows[0] != ["bound", "direction", "value", "guard"]:
        return f"bad header {rows[0]!r}"
    if rows[2][:2] != ["lambda_max", "exact"]:
        return f"bad lambda_max row {rows[2]!r}"
    body = rows[3:]
    if [(r[0], r[1]) for r in body] != list(BOUND_IDS):
        return "bound ids or directions differ from the catalog"
    for r in body:
        if (r[2] == DASH) != bool(r[3]):
            return f"{r[0]}: guard reason {r[3]!r} does not match value {r[2]!r}"
    return _check_row(facts, rows[2][2], {r[0]: r[2] for r in body})


def check_report(names: list[str], facts: list[tuple[Facts, Facts, Facts]], out: str) -> str | None:
    """``report --format csv``: three signings per graph, each row checked like ``bounds``."""
    rows = list(csv.reader(io.StringIO(out)))
    header = ["graph", "variant", "lambda_max"] + [b for b, _ in BOUND_IDS]
    if not rows or rows[0] != header:
        return "bad csv header"
    body = rows[1:]
    if len(body) != 3 * len(names):
        return f"expected {3 * len(names)} rows, got {len(body)}"
    for k, row in enumerate(body):
        name, variant = names[k // 3], VARIANTS[k % 3]
        if len(row) != len(header) or row[0] != name or row[1] != variant:
            return f"row {k + 1}: expected {name} {variant}, got {row[:2]!r}"
        bad = _check_row(facts[k // 3][k % 3], row[2], dict(zip(header[3:], row[3:])))
        if bad:
            return f"{name} {variant}: {bad}"
    return None


def check_switch(a: Graph, b: Graph, equivalent: bool, out: str) -> str | None:
    """``switch-check``: verdict as constructed, and theta really maps a to b."""
    lines = out.splitlines()
    want = f"switching-equivalent: {'yes' if equivalent else 'no'}"
    if not lines or lines[0] != want:
        return f"verdict {lines[:1]!r}, expected {want!r}"
    if not equivalent:
        return None if len(lines) == 1 else "witness printed for an inequivalent pair"
    if len(lines) != 2 or not lines[1].startswith("theta: "):
        return "missing theta line"
    tokens = lines[1][len("theta: "):].split()
    if len(tokens) != a.n or any(t not in ("+", "-") for t in tokens):
        return "theta has the wrong length or symbols"
    theta = [1 if t == "+" else -1 for t in tokens]
    if set(switched(a, theta).edges) != set(b.edges):
        return "theta does not map a to b"
    return None


def check_verify(trials: int, out: str) -> str | None:
    lines = out.splitlines()
    want = [f"trials: {trials}", "bound violations: 0", "identity failures: 0", "result: PASS"]
    return None if lines == want else f"verify printed {lines[:4]!r}"


def mutations(kind: str, out: str, pivot: int = 1) -> list[tuple[str, str]]:
    """Corrupted copies of a correct output, each of which must be rejected.

    ``pivot`` is a vertex with an edge, for corrupting a switching witness.
    """
    lines = out.splitlines(keepends=True)
    if kind == "verify":
        return [("verdict FAIL", out.replace("result: PASS", "result: FAIL")),
                ("trial count", out.replace("trials: ", "trials: 1", 1))]
    if kind == "switch":
        flipped = out.replace("yes", "no") if "yes" in out else out.replace("no", "yes")
        muts = [("flipped verdict", flipped)]
        if len(lines) == 2:
            # -theta is a witness too, so corrupt a single vertex with an edge.
            signs = lines[1].split()
            signs[pivot] = "-" if signs[pivot] == "+" else "+"
            muts.append(("wrong theta", lines[0] + " ".join(signs) + "\n"))
        return muts
    if kind == "bounds":
        def with_value(k: int, cell: str) -> str:
            cells = lines[k].split("|")
            cells[3] = f" {cell} "
            return "".join(lines[:k] + ["|".join(cells)] + lines[k + 1:])

        lam = float(lines[2].split("|")[3])
        return [("shifted lambda_max", with_value(2, f"{lam + 0.002:.3f}")),
                ("lower bound above lambda_max", with_value(3, f"{lam + 1:.3f}")),
                ("applicable bound rendered as a dash", with_value(3, DASH))]
    if kind == "report":
        row = lines[1].split(",")
        row[2] = f"{float(row[2]) + 0.002:.3f}"
        swapped = lines[:1] + [lines[2], lines[1]] + lines[3:]
        muts = [("shifted lambda_max", "".join(lines[:1] + [",".join(row)] + lines[2:])),
                ("swapped variants", "".join(swapped))]
        guarded = next((k for k, line in enumerate(lines) if DASH in line), None)
        if guarded is not None:
            filled = lines[guarded].replace(DASH, "0.000", 1)
            muts.append(("guarded bound given a value",
                         "".join(lines[:guarded] + [filled] + lines[guarded + 1:])))
        return muts
    raise ValueError(kind)
