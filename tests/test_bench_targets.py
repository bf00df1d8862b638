"""Every function the benchmark's layer tracer wraps must still exist.

benchmark/layers.py looks each target up with vars(owner)[attr]; a
renamed or deleted function would only show up as a KeyError when a
traced benchmark run installs the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest


def _load_targets():
    path = Path(__file__).resolve().parents[1] / "benchmark" / "layers.py"
    spec = importlib.util.spec_from_file_location("_bench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TARGETS


TARGETS = sorted({(module, path) for _, module, path in _load_targets()})


@pytest.mark.parametrize("module, path", TARGETS, ids=[f"{m}.{p}" for m, p in TARGETS])
def test_bench_target_resolves(module, path):
    owner = importlib.import_module(module)
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = vars(owner)[part]
    raw = vars(owner)[attr]
    assert callable(raw.__func__ if isinstance(raw, staticmethod) else raw)
