"""Every function the benchmark's layer tracer wraps must still exist.

benchmark/layers.py looks each target up with vars(owner)[attr]; a
renamed or deleted function would only show up as a KeyError when a
traced benchmark run installs the tracer.
"""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from leibhom.exactla import Matrix


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


def test_cached_views_keep_the_traced_matrix_contract():
    data = [[1, 0, Fraction(1, 2)], [0, 0, 0], [2, 0, 1]]
    m, twin = Matrix.from_rows(data), Matrix.from_rows(data)
    assert m.sparse_rows == (((0, 1), (2, Fraction(1, 2))), (), ((0, 2), (2, 1)))
    assert m.rank() == 1
    # the tracer reads entries row by row and sizes matrices by rows x cols
    assert isinstance(m.entries, tuple) and len(m.entries) == m.rows
    assert all(isinstance(r, tuple) and len(r) == m.cols for r in m.entries)
    assert m.entries == tuple(tuple(map(Fraction, r)) for r in data)
    assert sum(1 for row in m.entries for x in row if x) == 4
    # equality and hashing see the sparse rows only; entries is a cache
    assert m == twin and hash(m) == hash(twin)
    assert "entries" in vars(m) and "entries" not in vars(twin)
    for module, path in TARGETS:
        test_bench_target_resolves(module, path)
