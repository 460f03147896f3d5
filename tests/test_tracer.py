"""The functions that the benchmark's tracer wraps exist under their names.

bench/tracer.py looks up each (module, function) of its LAYERS with a plain
getattr, so a traced function that is deleted or renamed breaks every traced
benchmark run.  The tracer is loaded from its file, as the benchmark runs it.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


def test_traced_layers_resolve_to_functions():
    layers = [(module, attr) for _, module, attr in _layers() if module.startswith("krull_arith.")]
    assert layers
    missing = [
        (module, attr)
        for module, attr in layers
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
