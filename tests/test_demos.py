import os
import subprocess
import sys
from pathlib import Path

import pytest

import troplag

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
# The demos import troplag from wherever this test session found it.
PACKAGE_ROOT = str(Path(troplag.__file__).resolve().parent.parent)


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT,
                                         os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(script)],
                            capture_output=True, text=True, timeout=60,
                            env=dict(os.environ, PYTHONPATH=path))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_demos_exist():
    assert len(DEMOS) == 3
