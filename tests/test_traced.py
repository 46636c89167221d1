"""The traced benchmark's wrappers still find the production names they wrap.

perfbench/traced.py replaces module attributes (cli.profiles,
evaluate.bounded_voronoi, cli.run, ingest.resample, ...) by looked-up name.
Installing it here makes a renamed or removed name fail the test suite, not
only a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"
MODULES = ("cli", "evaluate", "features", "ingest", "simulate", "tcn")


def _namespaces():
    """The crowdtcn modules install patches, and the classes they define."""
    modules = [importlib.import_module(f"crowdtcn.{name}") for name in MODULES]
    classes = [
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    ]
    return modules + classes


def test_traced_install_wraps_current_names_and_restores_them():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    namespaces = _namespaces()
    before = [dict(vars(ns)) for ns in namespaces]
    try:
        traced.install(traced.Tracer())
        patched = {}
        for ns, old in zip(namespaces, before):
            for name, value in vars(ns).items():
                if name not in old or value is not old[name]:
                    patched[f"{ns.__name__}.{name}"] = (value, old.get(name))
    finally:
        for ns, old in zip(namespaces, before):
            for name in [n for n in vars(ns) if n not in old]:
                delattr(ns, name)
            for name, value in old.items():
                if vars(ns).get(name) is not value:
                    setattr(ns, name, value)
    for ns, old in zip(namespaces, before):
        assert vars(ns).keys() == old.keys()
        assert all(vars(ns)[name] is value for name, value in old.items())
    assert {"crowdtcn.cli.profiles", "crowdtcn.evaluate.bounded_voronoi"} <= set(patched)
    for name, (wrapper, original) in patched.items():
        # every patch wraps the callable it replaced (functools.wraps)
        assert original is not None and inspect.unwrap(wrapper) is original, name
