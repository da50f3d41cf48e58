"""Every callable the benchmark tracer wraps must exist, and take the
arguments its counters read where they read them.

`benchmark/tracer.py` wraps each name in its TRACED table with getattr; a
renamed or deleted function breaks every traced benchmark run. Its
counters read some arguments by position from a wrapped call's args, so
a parameter moved in a signature silently counts the wrong value. This
checks both against the package in milliseconds.
"""

import functools
import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# (module, attribute, position in the wrapped call's args, parameter) of
# each argument the tracer's counters read by position; a method's args
# start with the instance.
COUNTED_ARGS = (
    ("cloud", "SpatialIndex.knn_batch", 1, "qs"),
    ("mlp", "Mlp.loss_and_grads", 1, "x"),
    ("columnar", "write_columnar", 1, "path"),
    ("pipeline", "file_sha256", 0, "path"),
    ("csf", "simulate_cloth", 1, "params"),
)


def _resolve(module_name, attr):
    module = importlib.import_module(f"mslidar.{module_name}")
    return functools.reduce(getattr, attr.split("."), module)


def test_every_traced_name_resolves():
    traced = _load_tracer().TRACED
    assert traced
    for module_name, attr in traced:
        assert callable(_resolve(module_name, attr)), f"{module_name}.{attr}"


def test_counted_arguments_keep_their_positions():
    traced = set(_load_tracer().TRACED)
    for module_name, attr, position, name in COUNTED_ARGS:
        assert (module_name, attr) in traced
        params = list(inspect.signature(_resolve(module_name, attr)).parameters)
        assert params[position : position + 1] == [name], f"{module_name}.{attr}{params}"
