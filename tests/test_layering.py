"""Each module loads only the layers beneath it, and lists its public names.

The package namespace re-exports nothing, so importing one module must not
pull in the rest of the pipeline. Each import runs in a fresh interpreter.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# module -> the other crowdtcn modules that importing it loads
LAYERS = {
    "crowdtcn": set(),
    "crowdtcn.geometry": set(),
    "crowdtcn.tcn": set(),
    "crowdtcn.features": {"geometry"},
    "crowdtcn.scenario": {"features", "geometry"},
    "crowdtcn.ingest": {"geometry"},
    "crowdtcn.synth": {"features", "geometry", "ingest", "scenario"},
    "crowdtcn.simulate": {"features", "geometry", "ingest", "scenario"},
    "crowdtcn.evaluate": {"geometry", "ingest"},
    "crowdtcn.cli": {
        "evaluate", "features", "geometry", "ingest", "scenario", "simulate", "synth", "tcn",
    },
}


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_import_loads_only_lower_layers(module):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    code = (
        f"import sys, {module}; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('crowdtcn.'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = {m.removeprefix("crowdtcn.") for m in out.stdout.split()}
    loaded.discard(module.removeprefix("crowdtcn."))
    assert loaded == LAYERS[module]


@pytest.mark.parametrize("module", sorted(set(LAYERS) - {"crowdtcn"}))
def test_public_names_resolve(module):
    mod = importlib.import_module(module)
    assert mod.__all__ and len(set(mod.__all__)) == len(mod.__all__)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_package_holds_only_its_version():
    import crowdtcn

    public = {name for name in vars(crowdtcn) if not name.startswith("_")}
    assert crowdtcn.__version__ and public <= {m.removeprefix("crowdtcn.") for m in LAYERS}
