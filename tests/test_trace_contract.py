"""The benchmark's layer trace (perfbench/tracer.py) wraps package functions
by name; every name it lists must still exist."""

import importlib
import importlib.util
from pathlib import Path


def test_traced_layers_exist():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{name}"
        for module, names in tracer.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"minimaxcert.{module}"), name, None))
    ]
    assert tracer.LAYERS and not missing
