"""Print five sha256 digests that pin every evaluated result.

1. Every bound and spectrum of a fixed corpus: 1260 ``generate``d graphs,
   n in {1, 2, 3, 5, 10, 30, 60}, edge_prob in {0.1, 0.5, 0.9}, neg_prob
   in {0, 0.5, 1} and seeds 0-19, in that nesting order.  The digest is
   taken over ``repr((ev.results, ev.spectrum))`` of
   ``evaluate_all(g, check=False)`` on each.
2. ``repr(unsigned_corollaries(g))`` on the same corpus.
3. The concatenated ``repr``s of the ``verify`` reports of ``VERIFY_RUNS``,
   in order.
4. The switch-check path on the same corpus: each graph is read back from
   its serializer text with the lines shuffled, and so are two partners,
   a switching of it and the same switching with one cycle edge flipped
   (graphs without a cycle get no second partner).  The digest is taken
   over ``repr`` of ``balance_info`` of the graph read back and of
   ``switching_equivalent`` of it with each partner, verdict and witness.
5. The ``sglap switch-check`` command on the same corpus: each graph's
   serializer text against a twin, a switching of it, with one cycle edge
   flipped in about half of the graphs that have a cycle.  The twin is
   written twice, once line for line as the serializer writes it, so that
   it differs from the graph's text in sign bytes alone, and once with its
   lines shuffled.  The digest is taken over each call's exit code and
   stdout.

Each changes when any bound value, guard reason, eigenvalue, reported
violation, balance reading, switching witness or switch-check output
changes in its last bit.  Two commits that print the same digests on one
machine give bit-identical results there; the eigenvalues, and so the
first three digests, depend on the LAPACK build.  Digests 4 and 5 call no
eigensolver, so they read the same on every machine, and
``tests/test_fingerprint.py`` pins them.

Run from the root of a source checkout:

    python3 tools/fingerprint.py
"""

import contextlib
import hashlib
import io
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sglap import (GeneratorConfig, SignedGraph, balance_info, evaluate_all,  # noqa: E402
                   generate, parse_signed_graph, serialize_signed_graph, switch,
                   switching_equivalent, unsigned_corollaries, verify)
from sglap.cli import main as cli_main  # noqa: E402

# (config, trials, tol): passing and failing runs, connected or not, from
# n = 1 to n = 30.  A negative tol makes the sandwich report tight bounds.
VERIFY_RUNS = (
    (GeneratorConfig(10, .5, .5, 7), 300, 1e-9),
    (GeneratorConfig(6, .5, .5, 31), 50, -1.0),
    (GeneratorConfig(12, .3, .2, 5, require_connected=True), 100, 1e-9),
    (GeneratorConfig(1, .5, .5, 3), 5, -1.0),
    (GeneratorConfig(30, .2, .8, 9), 40, -1.0),
    (GeneratorConfig(4, .6, .5, 2, require_connected=True), 60, -1.0),
)


def read_back(g: SignedGraph, rng: random.Random) -> SignedGraph:
    """``g`` parsed from its serializer text with the edge lines shuffled."""
    header, *lines = serialize_signed_graph(g).splitlines(keepends=True)
    rng.shuffle(lines)
    return parse_signed_graph(header + "".join(lines))


def cycle_edge(g: SignedGraph):
    """The first edge, in sorted order, that closes a cycle with the edges
    before it, or None if ``g`` is a forest."""
    parent = list(range(g.n + 1))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for i, j, _ in sorted(g.edges):
        a, b = root(i), root(j)
        if a == b:
            return i, j
        parent[max(a, b)] = min(a, b)
    return None


def switch_readings(g: SignedGraph, rng: random.Random) -> str:
    """``repr`` of the balance and switching results of digest 4 on ``g``."""
    g = read_back(g, rng)
    partner = switch(g, tuple(rng.choice((1, -1)) for _ in range(g.n)))
    partners = [partner]
    closing = cycle_edge(g)
    if closing is not None:
        partners.append(flipped(partner, closing))
    return repr((balance_info(g),
                 [switching_equivalent(g, read_back(h, rng)) for h in partners]))


def flipped(g: SignedGraph, pair) -> SignedGraph:
    """``g`` with the sign of its edge on ``pair`` flipped."""
    edges = {(i, j): s for i, j, s in g.edges}
    edges[pair] *= -1
    return SignedGraph(g.n, frozenset((i, j, s) for (i, j), s in edges.items()))


def corpus():
    """The fixed corpus of digests 1, 2 and 4, in order."""
    for n in (1, 2, 3, 5, 10, 30, 60):
        for edge_prob in (0.1, 0.5, 0.9):
            for neg_prob in (0.0, 0.5, 1.0):
                for seed in range(20):
                    yield generate(GeneratorConfig(n, edge_prob, neg_prob, seed))


def switching_digest(graphs) -> str:
    """Digest 4, as hex, over ``graphs`` in order."""
    switching = hashlib.sha256()
    rng = random.Random(2026)
    for g in graphs:
        switching.update(switch_readings(g, rng).encode())
    return switching.hexdigest()


def switch_check_digest(graphs) -> str:
    """Digest 5, as hex, over ``graphs`` in order."""
    digest = hashlib.sha256()
    rng = random.Random(2029)
    with tempfile.TemporaryDirectory() as workdir:
        a, b = Path(workdir, "a.sg"), Path(workdir, "b.sg")
        for g in graphs:
            twin = switch(g, tuple(rng.choice((1, -1)) for _ in range(g.n)))
            closing = cycle_edge(g)
            if closing is not None and rng.random() < 0.5:
                twin = flipped(twin, closing)
            a.write_text(serialize_signed_graph(g), encoding="utf-8")
            header, *lines = serialize_signed_graph(twin).splitlines(keepends=True)
            shuffled = rng.sample(lines, len(lines))
            for text in (header + "".join(lines), header + "".join(shuffled)):
                b.write_text(text, encoding="utf-8")
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli_main(["switch-check", "--a", str(a), "--b", str(b)])
                digest.update(f"{code}\n{out.getvalue()}".encode())
    return digest.hexdigest()


def main() -> None:
    graphs = list(corpus())
    catalog, unsigned = hashlib.sha256(), hashlib.sha256()
    for g in graphs:
        ev = evaluate_all(g, check=False)
        catalog.update(repr((ev.results, ev.spectrum)).encode())
        unsigned.update(repr(unsigned_corollaries(g)).encode())
    reports = hashlib.sha256()
    for cfg, trials, tol in VERIFY_RUNS:
        reports.update(repr(verify(cfg, trials, tol)).encode())
    for digest in (catalog.hexdigest(), unsigned.hexdigest(), reports.hexdigest(),
                   switching_digest(graphs), switch_check_digest(graphs)):
        print(digest)


if __name__ == "__main__":
    main()
