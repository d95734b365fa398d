"""The repository's pytest settings report a failing Hypothesis test as a
plain failure.

``filterwarnings = ["error"]`` turns every warning into an error, and
Hypothesis's failure report imports libcst, which warns on import.  Without
the narrow ignore entry pytest stops with INTERNALERROR at the first failing
property and runs no later test.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

SAMPLE = textwrap.dedent(
    """
    from hypothesis import given, settings
    from hypothesis import strategies as st


    @given(st.integers())
    @settings(database=None)
    def test_fails(x):
        assert x < 5


    def test_passes():
        pass
    """
)


def test_failing_property_is_reported_and_later_tests_run(tmp_path):
    (tmp_path / "test_sample.py").write_text(SAMPLE, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_sample.py"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout
    assert "INTERNALERROR" not in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
