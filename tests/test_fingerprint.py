"""Digest 4 of ``tools/fingerprint.py``, the switch-check path, pinned.

It reads the balance and switching results of 1260 graphs parsed back from
shuffled serializer text, verdicts and witnesses included, and calls no
eigensolver, so its value does not depend on the LAPACK build.  A change
to the edge layout, the parser or the labelling that moves any verdict,
component reading or witness changes it.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py"

SWITCHING_DIGEST = "25e04cceb3b7b45524e7304fa3b0e77219735880bc53a99cf28dd01e9b2d32e8"


def load_tool():
    spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_switching_digest_is_pinned():
    tool = load_tool()
    assert tool.switching_digest(tool.corpus()) == SWITCHING_DIGEST
