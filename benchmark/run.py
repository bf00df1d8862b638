"""Seeded benchmark of the leibhom command line, end to end and per layer.

    python3 benchmark/run.py --workload tensor-sparse --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the program is the checkout's src/leibhom.
One client, closed loop: a pass runs the workload's fixed job list on one
variant of the seeded inputs, each job in a fresh worker interpreter
(benchmark/worker.py) started only after the previous one exited, the way
separate CLI invocations run.  Passes cycle through the variants and the
run ends on the whole cycle nearest to --seconds; metrics are medians over
passes, with times scaled to a reference host speed (see CALIB_REF_S).
Every job's exit code, tables and verdicts are checked against
golden.json.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and prints the per-layer metrics, measured by wrapping
leibhom's public functions from outside the package (benchmark/layers.py),
plus trace.overhead, the traced over the untraced wall time.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics.  See benchmark/README.md for why each workload exists
and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
GOLDEN = os.path.join(HERE, "golden.json")

# Usual time of worker.calibrate() on the host the benchmark was written on
# (2-core Xeon VM, Python 3.11.7).  That shared host ran the same code up
# to 1.65x slower from one minute to the next, so every time a worker
# reports is scaled by CALIB_REF_S over that worker's own calibration time:
# times are seconds at the reference speed.  The scale never depends on
# the program (the kernel runs before leibhom is imported); raw seconds
# are printed alongside.
CALIB_REF_S = 0.016

# A job that runs this long has regressed by an order of magnitude; it is
# killed and counted as failed.  A run stops after the pass that crosses
# RUN_CAP_S even mid-cycle, so that a run of a much slower program still
# ends within three minutes.
JOB_TIMEOUT_S = 60
RUN_CAP_S = 120

END_TO_END = (
    ("wall_s", "s"),        # sum of the job wall times in a pass
    ("cpu_s", "s"),         # user + system CPU of the pass's workers
    ("peak_rss_mb", "MB"),  # largest worker peak RSS in a pass
    ("setup_s", "s"),       # time to import leibhom.cli, median over workers
)

# <layer>.<stat>: stat "s" is inclusive seconds, "repeat_frac" the share of
# rank calls on a matrix already ranked in the same job, "density" nonzeros
# over cells of the matrices from_entries densified.
PER_LAYER = (
    "exactla.rank.calls", "exactla.rank.self_s", "exactla.rank.cells",
    "exactla.rank.nnz", "exactla.rank.repeat_frac",
    "exactla.mul.calls", "exactla.mul.self_s", "exactla.mul.cells",
    "exactla.kernel_basis.self_s", "exactla.span.self_s",
    "exactla.restrict_map.calls", "exactla.restrict_map.self_s",
    "exactla.apply.calls", "exactla.apply.self_s",
    "exactla.coords.calls", "exactla.coords.self_s",
    "exactla.from_entries.self_s", "exactla.from_entries.density",
    "homology.build.self_s", "homology.build.max_dim",
    "homology.gate.calls", "homology.gate.s",
    "homology.compare.self_s", "homology.conjecture.self_s",
    "pbw.normal_form.calls", "pbw.normal_form.self_s",
    "dgla.minimal_envelope.self_s",
    "freealg.graded_commutator.calls", "freealg.graded_commutator.self_s",
    "freealg.bracket.self_s", "freealg.component.self_s",
    "leibcore.lie_quotient.self_s", "leibcore.checks.self_s",
    "cli.parse.self_s", "cli.emit.self_s", "cli.self_s",
    "trace.overhead",
)

_UNITS = {"calls": "count", "cells": "count", "nnz": "count", "max_dim": "count",
          "self_s": "s", "s": "s", "repeat_frac": "ratio", "density": "ratio",
          "overhead": "ratio"}


class BenchError(Exception):
    """The benchmark cannot run here (no program, broken inputs)."""


def canonical(result: dict) -> str:
    return json.dumps({"code": result.get("code"), "tables": result.get("tables"),
                       "verdicts": result.get("verdicts")}, sort_keys=True)


class Runner:
    def __init__(self, root: str):
        self.root = root
        self.src = os.path.join(root, "src")
        # a fixed hash seed keeps set and dict orders, and so the work done,
        # the same from run to run
        self.env = dict(os.environ, PYTHONPATH=self.src, PYTHONHASHSEED="0")

    def worker(self, job: dict) -> dict:
        """Run one worker; adds cpu_s (its user + system time, from outside)."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        try:
            proc = subprocess.run([sys.executable, WORKER, json.dumps(job)], cwd=self.root,
                                  env=self.env, capture_output=True, text=True,
                                  timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {JOB_TIMEOUT_S} s"}
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        out = json.loads(lines[-1])
        out["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return out

    def check_inputs(self, variants: list) -> None:
        """`leibhom check` on every generated file before any timing; also
        proves the checkout's own src/leibhom is the one imported."""
        files = [v[alg] for v in variants for alg in v]
        out = self.worker({"kind": "check", "files": files})
        if "error" in out:
            raise BenchError(out["error"])
        where = os.path.dirname(os.path.realpath(out["leibhom_file"]))
        if where != os.path.realpath(os.path.join(self.src, "leibhom")):
            raise BenchError(f"imported leibhom from {where}, not from {self.src}")
        if out["errors"]:
            raise BenchError("; ".join(out["errors"]))


def job_list(workload: str, paths: dict, workdir: str) -> list[tuple[str, dict]]:
    """(job id, worker job) for one pass over one variant's inputs."""
    out = []
    report = os.path.join(workdir, "report.json")
    for job in gen.WORKLOADS[workload]["jobs"]:
        if job[0] == "conjecture_check":
            spec = {"kind": "conjecture_check", "generators": job[1], "max_weight": job[2]}
        else:
            spec = {"kind": "cli", "argv": gen.argv_for(job, paths), "report": report}
        out.append((gen.job_id(job), spec))
    return out


def run_pass(runner: Runner, jobs: list, golden: dict, trace: bool,
             expect: list | None = None) -> dict:
    """One pass over the job list.  golden maps job id to canonical output;
    expect, for a traced pass, holds the untraced pass's outputs."""
    walls, cpus, rss, setups, raw, failures, outputs, layers = [], [], [], [], [], [], [], {}
    for jid, job in jobs:
        res = runner.worker(dict(job, trace=trace))
        outputs.append(canonical(res))
        if "setup_s" in res:
            slowdown = res["calib_s"] / CALIB_REF_S
            setups.append(res["setup_s"] / slowdown)
        if "error" in res:
            failures.append(f"{jid}: {res['error'].strip().splitlines()[-1]}")
            continue
        cpu_s = res["cpu_s"] - res["calib_s"]
        raw.append((res["wall_s"], cpu_s))
        walls.append(res["wall_s"] / slowdown)
        cpus.append(cpu_s / slowdown)
        rss.append(res["rss_kb"] / 1024)
        if outputs[-1] != golden.get(jid):
            failures.append(f"{jid}: output differs from golden: {outputs[-1][:300]}")
        elif expect is not None and outputs[-1] != expect[len(outputs) - 1]:
            failures.append(f"{jid}: traced and untraced outputs differ")
        for layer, st in res.get("layers", {}).items():
            acc = layers.setdefault(layer, dict.fromkeys(st, 0))
            for k, v in st.items():
                if k == "max_dim":
                    acc[k] = max(acc[k], v)
                else:
                    acc[k] += v / slowdown if k.endswith("_s") else v
    return {"wall_s": sum(walls), "cpu_s": sum(cpus), "peak_rss_mb": max(rss, default=0.0),
            "setups": setups, "raw": [sum(col) for col in zip(*raw)] or [0.0, 0.0],
            "failures": failures, "outputs": outputs, "layers": layers, "attempted": len(jobs)}


def layer_value(name: str, layers: dict) -> float:
    layer, stat = name.rsplit(".", 1)
    st = layers.get(layer)
    if st is None:
        return 0
    if stat == "repeat_frac":
        return st["repeats"] / st["calls"] if st["calls"] else 0.0
    if stat == "density":
        return st["nnz"] / st["cells"] if st["cells"] else 0.0
    return st["incl_s" if stat == "s" else stat]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "leibhom", "cli.py")):
        print(f"error: no src/leibhom in {root}; run from the root of a leibhom checkout",
              file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return _run(args, root, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))


def _run(args, root: str, workdir: str) -> int:
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = {jid: canonical(g) for jid, g in json.load(fh)[args.workload].items()}
    runner = Runner(root)
    variants = gen.generate(args.workload, args.seed, os.path.join(workdir, "inputs"))
    runner.check_inputs(variants)
    print(f"workload {args.workload}  seed {args.seed}  python {platform.python_version()}  "
          f"nproc {os.cpu_count()}  variants {len(variants)}  "
          f"jobs/pass {len(gen.WORKLOADS[args.workload]['jobs'])}  trace {args.trace}", flush=True)

    # Pass k runs variant k mod VARIANTS.  An untraced run ends on the whole
    # cycle of variants nearest to --seconds (at least one cycle).  With
    # --trace 1 an untraced and a traced pass run on each variant, their
    # outputs must match byte for byte, and the run ends after --seconds.
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        jobs = job_list(args.workload, variants[len(plain) % len(variants)], workdir)
        plain.append(run_pass(runner, jobs, golden, False))
        if args.trace:
            traced.append(run_pass(runner, jobs, golden, True, plain[-1]["outputs"]))
        elapsed = time.perf_counter() - start
        if elapsed >= RUN_CAP_S:
            break
        if args.trace:
            if elapsed >= args.seconds:
                break
        elif len(plain) % len(variants) == 0:
            cycle = elapsed / (len(plain) // len(variants))
            if elapsed + cycle / 2 >= args.seconds:
                break
    passes = plain + traced
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    for f in failures[:20]:
        print(f"FAILED {f}", flush=True)

    if args.trace:
        metrics = {}
        for name in PER_LAYER:
            if name == "trace.overhead":
                value = statistics.median(t["wall_s"] / p["wall_s"]
                                          for p, t in zip(plain, traced) if p["wall_s"])
            else:
                value = statistics.median(layer_value(name, p["layers"]) for p in traced)
            metrics[name] = {"value": value, "unit": _UNITS[name.rsplit(".", 1)[1]]}
    else:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            # a run whose every worker died has no import time; it fails anyway
            "setup_s": statistics.median([s for p in plain for s in p["setups"]] or [0.0]),
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
        raw = [statistics.median(p["raw"][i] for p in plain) for i in range(2)]
        print(f"  raw seconds, not scaled to the reference host speed: "
              f"wall {raw[0]:.6g}, cpu {raw[1]:.6g}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':34s} {len(failures) / attempted:.6g} ratio  "
          f"({len(failures)} of {attempted} jobs, {len(passes)} passes)")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
