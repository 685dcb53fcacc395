"""The benchmark's span tracer must still find every function it lists.

perfbench/tracer.py rebinds each name in its TRACED table inside the loaded
gqla modules. A renamed or deleted public function would break only the
traced benchmark run, so this test installs the tracer against the package
and checks both the rebinding and its undoing.
"""

import importlib
import importlib.util
from pathlib import Path


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_is_bound_and_restored():
    tracer_module = _load_tracer()
    modules = {name: importlib.import_module(f"gqla.{name}") for name in tracer_module.TRACED}
    originals = {(name, fn): getattr(modules[name], fn)
                 for name, functions in tracer_module.TRACED.items() for fn in functions}
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for (name, fn), original in originals.items():
            bound = getattr(modules[name], fn)
            assert bound is not original, f"gqla.{name}.{fn} was not rebound"
            assert bound.__wrapped__ is original
    finally:
        tracer.uninstall()
    for (name, fn), original in originals.items():
        assert getattr(modules[name], fn) is original, f"gqla.{name}.{fn} was not restored"
