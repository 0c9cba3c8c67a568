"""Every demo script runs to completion.

Each runs as a child process in its own temporary directory, so files a
demo writes (``04_error_sweeps.py`` writes ``delta_vs_N.csv``) land there.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert r.returncode == 0, r.stderr
    assert "Traceback" not in r.stderr
