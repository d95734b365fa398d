"""Digests 4 and 5 of ``tools/fingerprint.py``, the switch-check path,
pinned.

Digest 4 reads the balance and switching results of 1260 graphs parsed
back from shuffled serializer text, verdicts and witnesses included;
digest 5 reads the ``switch-check`` command's output on each of them
against a re-signed twin, written line for line and shuffled.  Neither
calls an eigensolver, so their values do not depend on the LAPACK build.
A change to the edge layout, the parser, the labelling or the way
``switch-check`` reads its second file that moves any verdict, component
reading or witness changes them.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py"

SWITCHING_DIGEST = "25e04cceb3b7b45524e7304fa3b0e77219735880bc53a99cf28dd01e9b2d32e8"
SWITCH_CHECK_DIGEST = "193302b2255afba59a9c4e103240a11d32bd995865b48ab19b40e5e089de48e1"


def load_tool():
    spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_switching_digest_is_pinned():
    tool = load_tool()
    assert tool.switching_digest(tool.corpus()) == SWITCHING_DIGEST


def test_switch_check_digest_is_pinned():
    tool = load_tool()
    assert tool.switch_check_digest(tool.corpus()) == SWITCH_CHECK_DIGEST
