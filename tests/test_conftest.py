"""The suite's own setup: under the project's pytest settings, a failing
property test is reported as an ordinary failure."""
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

TESTS = Path(__file__).resolve().parent

PROBE = textwrap.dedent(
    """
    from hypothesis import given
    from hypothesis import strategies as st


    @given(st.integers())
    def test_fails(x):
        assert x < 0


    def test_runs_after():
        pass
    """
)


def test_failing_property_test_does_not_stop_the_run(tmp_path):
    # the project's settings include error::DeprecationWarning
    shutil.copy(TESTS.parent / "pyproject.toml", tmp_path)
    shutil.copy(TESTS / "conftest.py", tmp_path)
    (tmp_path / "test_probe.py").write_text(PROBE)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 1, out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout, out.stdout
