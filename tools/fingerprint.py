"""Print one sha256 over every bound and spectrum of a fixed corpus.

The corpus is 1260 ``generate``d graphs: n in {1, 2, 3, 5, 10, 30, 60},
edge_prob in {0.1, 0.5, 0.9}, neg_prob in {0, 0.5, 1} and seeds 0-19, in
that nesting order.  The digest is taken over ``repr((ev.results,
ev.spectrum))`` of ``evaluate_all(g, check=False)`` on each, so it changes
when any bound value, guard reason or eigenvalue changes in its last bit.
Two commits that print the same digest on one machine give bit-identical
results there; the eigenvalues, and so the digest, depend on the LAPACK
build.

Run from the root of a source checkout:

    python3 tools/fingerprint.py
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sglap import GeneratorConfig, evaluate_all, generate  # noqa: E402


def main() -> None:
    digest = hashlib.sha256()
    for n in (1, 2, 3, 5, 10, 30, 60):
        for edge_prob in (0.1, 0.5, 0.9):
            for neg_prob in (0.0, 0.5, 1.0):
                for seed in range(20):
                    ev = evaluate_all(generate(GeneratorConfig(n, edge_prob, neg_prob, seed)),
                                      check=False)
                    digest.update(repr((ev.results, ev.spectrum)).encode())
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
