"""perfbench/tracing.py wraps tamewild's functions and methods by name from
outside the package, so renaming one of them breaks `perfbench/run.py
--trace 1` at install time."""

import importlib.util
import sys
from pathlib import Path

import tamewild.cli  # noqa: F401  (the tracer installs after this import)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of tamewild's modules and of the classes in them,
    keyed by (namespace id, name)."""
    spaces = []
    for name, module in list(sys.modules.items()):
        if name == "tamewild" or name.startswith("tamewild."):
            spaces.append(module)
            spaces.extend(v for v in vars(module).values()
                          if isinstance(v, type))
    return {(id(space), key): val
            for space in spaces for key, val in vars(space).items()}


def test_tracer_installs_and_restores_every_name():
    tracing = _load_tracing()
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = {(id(owner), attr) for owner, attr, _ in tracer._patches}
        for _, module, owner, attr in tracing.SPANS + tracing.COUNTERS:
            mod = sys.modules[module]
            space = mod if owner is None else getattr(mod, owner)
            assert (id(space), attr) in patched, (module, owner, attr)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert patched
    for key in patched:
        assert after[key] is before[key]
