"""The entry point runs one BLAS thread per process unless the user chose.

Each check runs in a fresh interpreter, so that numpy loads after the entry
module has set the environment; the test runner's own numpy is already loaded.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from crowdtcn.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _python(args, preset=None, cwd=None):
    """Run python with src on the path, none of the BLAS variables but `preset`."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env.update(preset or {}, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


_SEEN = (
    "import json, os; "
    f"print(json.dumps({{k: os.environ.get(k) for k in {BLAS_THREADS!r}}}))"
)


def test_entry_sets_one_blas_thread():
    seen = _python(["-c", "import crowdtcn.__main__; " + _SEEN])
    assert json.loads(seen) == dict.fromkeys(BLAS_THREADS, "1")


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts Linux threads")
def test_entry_process_has_one_thread():
    # numpy's BLAS starts no thread pool of its own
    code = "import os, crowdtcn.__main__; print(len(os.listdir('/proc/self/task')))"
    assert _python(["-c", code]).strip() == "1"


def test_user_setting_wins():
    seen = _python(["-c", "import crowdtcn.__main__; " + _SEEN], {"OMP_NUM_THREADS": "3"})
    assert json.loads(seen) == {
        "OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": None
    }


# a sweep through the entry whose cells report the environment they ran in;
# `probe` is a module-level name, so the pool finds it under any start method
_PROBE = """
import json, os, sys
from pathlib import Path

import crowdtcn.__main__ as entry
from crowdtcn import cli


def probe(config_path, cell):
    label, overrides = cell
    out = Path(overrides["output_dir"])
    out.mkdir(parents=True)
    seen = {k: os.environ.get(k) for k in %r}
    (out / "env.json").write_text(json.dumps({"pid": os.getpid(), "env": seen}))
    return {"label": label, "status": "ok", **{key: 0.0 for key, *_ in cli._METRICS}}


if __name__ == "__main__":
    cli._sweep_one = probe
    print(os.getpid())
    sys.exit(entry.main(sys.argv[1:]))
""" % (BLAS_THREADS,)


def test_sweep_worker_sees_one_blas_thread(tmp_path):
    data = tmp_path / "data"
    argv = ["synth", "--out", str(data), "--seed", "0", "--n-train", "4", "--n-test", "2"]
    assert main(argv) == EXIT_OK
    (tmp_path / "probe.py").write_text(_PROBE)
    grid = ["--exit-distances", "20,30", "--step-degs", "18", "--jobs", "2"]
    argv = ["sweep", "-c", str(data / "run.json"), *grid, "--output-dir", str(tmp_path / "out")]
    parent = int(_python([str(tmp_path / "probe.py"), *argv], cwd=tmp_path).splitlines()[0])
    for label in ("20-18", "30-18"):
        cell = json.loads((tmp_path / "out" / label / "env.json").read_text())
        assert cell["pid"] != parent  # a pool worker, not the sweep's own process
        assert cell["env"] == dict.fromkeys(BLAS_THREADS, "1")


def test_console_script_is_the_entry():
    # read as text: Python 3.10 has no tomllib
    text = (ROOT / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert scripts and scripts.group(1).split() == ["crowdtcn", "=", '"crowdtcn.__main__:main"']
