"""Tests of the benchmark itself: seeded inputs, a tiny pass of every
workload (untraced and traced), and the tracer's wrapping and restoring.

    python3 -m pytest benchmark/tests -q      (from the repository root)
"""

import filecmp
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

# The cheapest jobs of each workload, a fraction of a second each.
TINY = {
    "tensor-sparse": {"check-heis3", "homology-heis3-3-trivial", "homology-fil4-3-trivial"},
    "modules-generic": {"check-hemi2", "compare-hemi2-4-lie", "homology-hemi2-5-rep"},
    "free-vanishing": {"free-conjecture-1-6", "free-conjecture-3-3", "fg-hemi2-5"},
}


def _golden(workload):
    with open(run.GOLDEN, encoding="utf-8") as fh:
        return {jid: run.canonical(g) for jid, g in json.load(fh)[workload].items()}


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_same_inputs(workload, tmp_path):
    a = gen.generate(workload, 7, str(tmp_path / "a"))
    b = gen.generate(workload, 7, str(tmp_path / "b"))
    c = gen.generate(workload, 8, str(tmp_path / "c"))
    names = sorted(os.listdir(tmp_path / "a"))
    assert len(a) == gen.VARIANTS and names == sorted(os.listdir(tmp_path / "b"))
    _, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names, shallow=False)
    assert not mismatch and not errors
    _, mismatch, _ = filecmp.cmpfiles(tmp_path / "a", tmp_path / "c", names, shallow=False)
    assert mismatch
    assert [v.keys() for v in a] == [v.keys() for v in c]


def test_a_cycle_deals_every_ordering_once():
    bases = gen.permutation_bases(random.Random(3), 3, gen.VARIANTS)
    assert len({str(p) for p in bases}) == 6
    again = gen.unimodular_bases(random.Random(3), 3, gen.VARIANTS)
    assert len({str(p) for p in again}) == 6
    for p in again:  # unimodular: the inverse is integral
        assert all(x.denominator == 1 for row in gen._inverse(p) for x in row)


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_tiny_pass_untraced_and_traced(workload, tmp_path):
    runner = run.Runner(ROOT)
    variants = gen.generate(workload, 5, str(tmp_path / "inputs"))
    runner.check_inputs(variants)
    jobs = [j for j in run.job_list(workload, variants[1], str(tmp_path))
            if j[0] in TINY[workload]]
    assert len(jobs) == len(TINY[workload])
    golden = _golden(workload)
    plain = run.run_pass(runner, jobs, golden, False)
    assert plain["failures"] == [] and plain["wall_s"] > 0 and plain["cpu_s"] > 0
    assert len(plain["setups"]) == len(jobs) and plain["peak_rss_mb"] > 1
    traced = run.run_pass(runner, jobs, golden, True, plain["outputs"])
    assert traced["failures"] == []
    assert traced["outputs"] == plain["outputs"]
    assert traced["layers"]["cli"]["calls"] == len(jobs)
    for name in run.PER_LAYER:
        if name != "trace.overhead":
            assert run.layer_value(name, traced["layers"]) >= 0


def test_golden_mismatch_is_a_failure(tmp_path):
    runner = run.Runner(ROOT)
    variants = gen.generate("tensor-sparse", 5, str(tmp_path / "inputs"))
    jobs = [j for j in run.job_list("tensor-sparse", variants[0], str(tmp_path))
            if j[0] == "homology-heis3-3-trivial"]
    golden = dict(_golden("tensor-sparse"))
    golden["homology-heis3-3-trivial"] = golden["homology-heis3-3-trivial"].replace(
        '"0": 1', '"0": 2', 1)
    res = run.run_pass(runner, jobs, golden, False)
    assert len(res["failures"]) == 1 and "golden" in res["failures"][0]


def _bindings():
    import leibhom.cli  # noqa: F401 - with the package, loads every module
    owners = [m for name, m in sys.modules.items()
              if m is not None and name.split(".")[0] == "leibhom"]
    owners += [v for m in list(owners) for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("leibhom")]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_tracer_patches_every_binding_and_restores_them():
    import leibhom
    from leibhom import exactla, homology

    before = _bindings()
    orig_mul = vars(exactla.Matrix)["mul"]
    orig_rank = exactla.rank
    g = leibhom.LeibnizAlgebra.from_brackets(["p", "q", "z"], {(0, 1): {2: 1}, (1, 0): {2: -1}})
    want = homology.loday_complex(g, homology.trivial_coefficients(), 3).betti()

    tracer = layers.Tracer()
    tracer.install()
    try:
        # imported by name into homology and the package
        assert homology.kernel_basis is exactla.kernel_basis is leibhom.kernel_basis
        assert homology.restrict_map is exactla.restrict_map
        assert homology.column_span is exactla.column_span
        assert exactla.rank is not orig_rank and leibhom.rank is exactla.rank
        # the @ alias made at class creation
        assert vars(exactla.Matrix)["__matmul__"] is vars(exactla.Matrix)["mul"] is not orig_mul
        got = homology.loday_complex(g, homology.trivial_coefficients(), 3).betti()
        m = exactla.Matrix.from_rows([[1, 2], [2, 4]])
        assert m.rank() == 1
    finally:
        tracer.uninstall()

    assert got == want
    assert _bindings() == before
    stats = tracer.stats()
    assert stats["exactla.rank"]["calls"] >= 4
    assert stats["exactla.rank"]["repeats"] >= 1      # interior differentials
    assert stats["exactla.mul"]["calls"] >= 2         # the d o d gate's @
    assert stats["homology.gate"]["calls"] == 1
    assert stats["homology.build"]["max_dim"] == 27
    for st in stats.values():
        assert 0 <= st["self_s"] <= st["incl_s"] + 1e-9


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "tensor-sparse",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_the_metrics_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
