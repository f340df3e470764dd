"""The benchmark's traced layers must name functions the program has.

`perfbench/tracing.py` binds its wrappers by module and attribute name, so
a renamed or deleted function would otherwise show up only as a crashed
traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_layer_resolves_to_a_callable():
    layers = traced_layers()
    assert layers
    for module_name, attr, _, _ in layers:
        assert module_name.startswith("ssein."), module_name
        target = importlib.import_module(module_name)
        for part in attr.split("."):  # a dotted attribute names a method
            assert hasattr(target, part), f"{module_name}.{attr}: no {part!r}"
            target = getattr(target, part)
        assert callable(target), f"{module_name}.{attr} is not callable"
