import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_AND_PASSING = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_given_test_does_not_end_the_session(tmp_path):
    """A failing @given test is reported as a failure and the run goes on,
    under the repository's conftest and its filterwarnings = error."""
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path)
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_given.py").write_text(FAILING_AND_PASSING)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", "pyproject.toml",
         "test_given.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout + run.stderr
