"""The repository's pytest settings, run on a test file of their own."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FALSIFIED_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(x):
    assert x < 10


def test_passes():
    pass
'''


def test_a_falsified_property_does_not_end_the_session(tmp_path):
    """Hypothesis reports a falsifying example under ``filterwarnings =
    error``, and pytest goes on to the next test."""
    (tmp_path / "test_two.py").write_text(FALSIFIED_THEN_PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
