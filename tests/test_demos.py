"""Smoke test: the quick demos run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# 06_full_pipeline trains three models (about 45 s) and stays out
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-5]_*.py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path)),
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
