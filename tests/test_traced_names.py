"""Every callable the benchmark tracer wraps must exist.

`benchmark/tracer.py` wraps each name in its TRACED table with getattr; a
renamed or deleted function breaks every traced benchmark run. This
checks the table against the package in milliseconds.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    traced = _load_tracer().TRACED
    assert traced
    for module_name, attr in traced:
        module = importlib.import_module(f"mslidar.{module_name}")
        target = functools.reduce(getattr, attr.split("."), module)
        assert callable(target), f"{module_name}.{attr}"
