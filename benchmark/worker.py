"""Run one benchmark job in a fresh interpreter and print its result.

    python3 benchmark/worker.py '<job json>'

The job is {"kind": "cli", "argv": [...], "report": path, "trace": bool}
or {"kind": "conjecture_check", "generators": d, "max_weight": w,
"trace": bool}, or {"kind": "check", "files": [...]} for the untimed
input check.  leibhom must be importable (run.py puts the checkout's
src/ on PYTHONPATH).  The last stdout line is one JSON object:
calib_s (time of a fixed kernel, see calibrate), setup_s (time to import
leibhom.cli), wall_s (time of the job call), rss_kb, code, tables,
verdicts, and per-layer stats when traced.
"""

import sys
import time


def calibrate() -> float:
    """Seconds for a fixed kernel of the kind leibhom spends its time in:
    fraction-free elimination on big Python ints.  It runs before leibhom
    is imported and uses builtins only, so no change to the program can
    change its time; only the speed of the host can."""
    n = 24
    t0 = time.perf_counter()
    for rep in range(16):
        a = [[(i * 7 + j * 13 + rep) % 11 - 5 + 20 * (i == j) for j in range(n)]
             for i in range(n)]
        prev = 1
        for c in range(n):
            p, prow = a[c][c], a[c]
            for i in range(c + 1, n):
                row, t = a[i], a[i][c]
                for j in range(c + 1, n):
                    row[j] = (p * row[j] - t * prow[j]) // prev
            prev = p
    return time.perf_counter() - t0


def _conjecture_report(leibhom, d: int, w: int) -> tuple[int, dict, dict]:
    """The free-conjecture command's tables and verdict, from the library
    call the CLI refuses above its weight budget."""
    rep = leibhom.conjecture_check(d, w)
    rows = [{"weight": v.weight, "h1": v.h1, "expected_h1": v.expected_h1,
             "higher": list(v.higher), "ok": v.ok} for v in rep.weights]
    return (0 if rep.verdict == "PASS" else 1), {"weights": rows}, {"verdict": rep.verdict}


def _check_inputs(leibhom, files: list) -> list[str]:
    """Validate every generated file: `leibhom check` on each algebra, and
    the module files through the CLI's own parsers, which test the module
    axioms against their algebra."""
    cli = leibhom.cli
    errors = []
    for entry in files:
        alg = entry["algebra"]
        if cli.entrypoint(["check", alg, "--quiet"]) != 0:
            errors.append(f"leibhom check failed on {alg}")
            continue
        g, _, was_right = cli.parse_algebra(alg)
        try:
            cli.parse_lie_module(entry["lie"], g)
            cli.parse_representation(entry["rep"], g, was_right)
        except (cli.ParseError, cli.AxiomError) as exc:
            errors.append(f"{alg}: {exc}")
    return errors


def main() -> int:
    raw = sys.argv[1]
    calib_s = calibrate()
    t0 = time.perf_counter()
    import leibhom.cli
    setup_s = time.perf_counter() - t0

    import json
    import os
    import resource
    import traceback

    job = json.loads(raw)
    out = {"calib_s": calib_s, "setup_s": setup_s, "leibhom_file": leibhom.__file__}
    if job["kind"] == "check":
        out["errors"] = _check_inputs(leibhom, job["files"])
        print(json.dumps(out))
        return 0

    tracer = None
    if job.get("trace"):
        import layers
        tracer = layers.Tracer()
        tracer.install()
    try:
        t1 = time.perf_counter()
        if job["kind"] == "cli":
            code = leibhom.cli.entrypoint(job["argv"] + ["--quiet", "--json", job["report"]])
            wall_s = time.perf_counter() - t1
            tables, verdicts = {}, {}
            if os.path.exists(job["report"]):
                with open(job["report"], encoding="utf-8") as fh:
                    report = json.load(fh)
                os.remove(job["report"])
                tables, verdicts = report["tables"], report["verdicts"]
        else:
            code, tables, verdicts = _conjecture_report(
                leibhom, job["generators"], job["max_weight"])
            wall_s = time.perf_counter() - t1
    except Exception:  # noqa: BLE001 - the job is reported as failed, not lost
        out["error"] = traceback.format_exc()
        print(json.dumps(out))
        return 0
    finally:
        if tracer is not None:
            tracer.uninstall()

    out.update(wall_s=wall_s, code=code, tables=tables, verdicts=verdicts,
               rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if tracer is not None:
        out["layers"] = tracer.stats()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
