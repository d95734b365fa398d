"""Print three sha256 digests that pin every evaluated result.

1. Every bound and spectrum of a fixed corpus: 1260 ``generate``d graphs,
   n in {1, 2, 3, 5, 10, 30, 60}, edge_prob in {0.1, 0.5, 0.9}, neg_prob
   in {0, 0.5, 1} and seeds 0-19, in that nesting order.  The digest is
   taken over ``repr((ev.results, ev.spectrum))`` of
   ``evaluate_all(g, check=False)`` on each.
2. ``repr(unsigned_corollaries(g))`` on the same corpus.
3. The concatenated ``repr``s of the ``verify`` reports of ``VERIFY_RUNS``,
   in order.

Each changes when any bound value, guard reason, eigenvalue or reported
violation changes in its last bit.  Two commits that print the same
digests on one machine give bit-identical results there; the eigenvalues,
and so the digests, depend on the LAPACK build.

Run from the root of a source checkout:

    python3 tools/fingerprint.py
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sglap import GeneratorConfig, evaluate_all, generate, unsigned_corollaries, verify  # noqa: E402

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


def main() -> None:
    catalog, unsigned = hashlib.sha256(), hashlib.sha256()
    for n in (1, 2, 3, 5, 10, 30, 60):
        for edge_prob in (0.1, 0.5, 0.9):
            for neg_prob in (0.0, 0.5, 1.0):
                for seed in range(20):
                    g = generate(GeneratorConfig(n, edge_prob, neg_prob, seed))
                    ev = evaluate_all(g, check=False)
                    catalog.update(repr((ev.results, ev.spectrum)).encode())
                    unsigned.update(repr(unsigned_corollaries(g)).encode())
    reports = hashlib.sha256()
    for cfg, trials, tol in VERIFY_RUNS:
        reports.update(repr(verify(cfg, trials, tol)).encode())
    for digest in (catalog, unsigned, reports):
        print(digest.hexdigest())


if __name__ == "__main__":
    main()
