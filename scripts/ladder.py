"""Run the workload ladder of ROADMAP.md and write BENCH_<label>.json.

Each rung is one call run in a fresh interpreter on this checkout's
src/, so no rung inherits caches or memory from another.  The child
reports the wall time of the call (perf_counter around it, import
excluded), its own peak RSS (ru_maxrss, import included) and the result:
the Betti numbers of a heis3 rung, the per-weight verdict of a
conjecture rung, the exit code, tables and verdicts of a CLI rung.  Two
trees that compute the same numbers write the same "result" fields.
The metadata also records "src_lines", the line count of
src/leibhom/*.py (as `wc -l` counts it), which ROADMAP aim 2 tracks.

A CLI rung is one `leibhom` invocation, leibhom.cli.entrypoint with
--quiet and --json, on a heis3 algebra file the script writes to a
temporary directory: what a shell invocation pays after the import,
argument parser and axiom checks included.

Run:  python3 scripts/ladder.py --label NAME [--rung NAME ...] [--out DIR]
Rungs run in the order listed below; --rung picks some of them.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> (function of the child, its arguments)
RUNGS = {
    "leibhom check heis3": ("cli", "check"),
    "leibhom homology --max-degree 3 heis3": ("cli", "homology", "--max-degree", "3"),
    "heis3 <= 6": ("heis3_betti", 6),
    "heis3 <= 7": ("heis3_betti", 7),
    "heis3 <= 8": ("heis3_betti", 8),
    "heis3 <= 9": ("heis3_betti", 9),
    "conjecture_check(1, 12)": ("conjecture", 1, 12),
    "conjecture_check(1, 14)": ("conjecture", 1, 14),
    "conjecture_check(2, 6)": ("conjecture", 2, 6),
    "conjecture_check(2, 7)": ("conjecture", 2, 7),
    "conjecture_check(2, 8)": ("conjecture", 2, 8),
    "conjecture_check(3, 4)": ("conjecture", 3, 4),
    "conjecture_check(3, 5)": ("conjecture", 3, 5),
    "conjecture_check(3, 6)": ("conjecture", 3, 6),
}

HEIS3_DOC = {"basis": ["p", "q", "z"], "convention": "left", "brackets": [
    {"left": "p", "right": "q", "value": {"z": "1"}},
    {"left": "q", "right": "p", "value": {"z": "-1"}}]}

CHILD = """
import json, resource, sys, time
from leibhom.cli import entrypoint
from leibhom.homology import conjecture_check, loday_complex, trivial_coefficients
from leibhom.leibcore import LeibnizAlgebra

def heis3_betti(n):
    # what `leibhom homology --max-degree n` runs
    n = int(n)
    g = LeibnizAlgebra.from_brackets(["p", "q", "z"], {(0, 1): {2: 1}, (1, 0): {2: -1}})
    return list(loday_complex(g, trivial_coefficients(), n + 1).betti()[:n + 1])

def conjecture(d, w):
    rep = conjecture_check(int(d), int(w))
    return {"verdict": rep.verdict, "h1": [v.h1 for v in rep.weights],
            "higher": [list(v.higher) for v in rep.weights]}

def cli(*argv):
    # heis3.json is in the working directory; the report is read after timing
    code = entrypoint([*argv, "heis3.json", "--quiet", "--json", "report.json"])
    def result():
        with open("report.json") as fh:
            report = json.load(fh)
        return {"exit": code, "tables": report["tables"], "verdicts": report["verdicts"]}
    return result

call = {"heis3_betti": heis3_betti, "conjecture": conjecture, "cli": cli}[sys.argv[1]]
t0 = time.perf_counter()
result = call(*sys.argv[2:])
wall = time.perf_counter() - t0
if callable(result):
    result = result()
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"wall_s": round(wall, 4), "peak_rss_mb": round(rss_mb, 1),
                  "result": result}))
"""


def run_rung(workdir: str, func: str, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-c", CHILD, func, *map(str, args)], cwd=workdir,
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--rung", action="append", choices=list(RUNGS),
                        help="run only this rung (repeatable)")
    parser.add_argument("--out", type=Path, default=ROOT)
    args = parser.parse_args()
    names = [n for n in RUNGS if args.rung is None or n in args.rung]
    rungs = []
    with tempfile.TemporaryDirectory() as workdir:
        Path(workdir, "heis3.json").write_text(json.dumps(HEIS3_DOC))
        for name in names:
            got = run_rung(workdir, *RUNGS[name])
            print(f"{name:<38} {got['wall_s']:8.4f} s {got['peak_rss_mb']:8.1f} MB", flush=True)
            rungs.append({"name": name, **got})
    meta = {"label": args.label, "python": platform.python_version(),
            "machine": platform.machine(), "cpus": os.cpu_count(),
            "src_lines": sum(p.read_bytes().count(b"\n")
                             for p in (ROOT / "src" / "leibhom").glob("*.py"))}
    # one rung per line, so two ladder files diff line by line
    body = ",\n".join("  " + json.dumps(r) for r in rungs)
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(meta)[:-1] + ', "rungs": [\n' + body + "\n]}\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
