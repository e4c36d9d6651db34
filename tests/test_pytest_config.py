"""The test configuration reports a failing property instead of aborting the run."""

import subprocess
import sys
import textwrap
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_property_is_reported_and_later_tests_run(tmp_path):
    (tmp_path / "pyproject.toml").write_text(CONFIG.read_text())
    (tmp_path / "test_property.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_later():
            pass
    """))
    run = subprocess.run([sys.executable, "-m", "pytest", "-rA", "-p", "no:cacheprovider",
                          "test_property.py"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "PASSED test_property.py::test_later" in run.stdout
