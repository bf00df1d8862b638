"""Run the workload ladder of ROADMAP.md and write BENCH_<label>.json.

Each run of a rung is one call in a fresh interpreter on this checkout's
src/, so no run inherits caches or memory from another.  The child runs
with PYTHONDONTWRITEBYTECODE=1, as the benchmark's workers do, so every
run compiles the package.  It reports the time of its leibhom imports,
the wall time of the call (perf_counter around it; the import, and the
parse of the algebra file a betti or cochains rung reads, excluded), its
own peak RSS (VmHWM, import included) and the result:
the Betti numbers of a heis3 or sl2 rung (a "dense" rung takes the
algebra in a basis that mixes every coordinate, a "cochains" rung gives
the cohomology of the cochain complex), the per-weight verdict of a
conjecture rung, the exit code, tables and verdicts of a CLI rung.  Two
trees that compute the same numbers write the same "result" fields.

The selected rungs run in ROUNDS round-robin rounds, so a drift of the
host spreads over every rung.  A rung keeps the wall times of its runs
in "wall_samples" and the import times in "import_samples"; "wall_s" and
"import_s" are their medians and "peak_rss_mb" the largest peak.  The
runs of a rung must agree on the result.  The metadata also records
"src_lines", the line count of src/leibhom/*.py (as `wc -l` counts it),
which ROADMAP aim 2 tracks, "cli_lines", the line count of the leibhom
modules that `import leibhom.cli` loads (read from the sys.modules of a
`python -S` child), which every CLI job compiles, and "cli_rss_mb", the
peak RSS of that child, what the import alone costs in memory.

A child reads its peak RSS as VmHWM from /proc/self/status, which starts
afresh at exec, and as ru_maxrss only where /proc is absent: Linux
carries the high-water mark of the spawning process, here the ladder's
own, which imports the package to write the input files (about 21 MB on
Python 3.11 x86_64), into the child's ru_maxrss, so a small child would
read the ladder's peak instead of its own.

--against DIR pairs this checkout with another one, such as a `git
worktree` of the parent, whose src/ the same children import.  Each of
2 * ROUNDS rounds runs every selected rung on both trees, one right
after the other, this tree first in odd rounds and DIR first in even
ones (ABBA), so a drift of the host lands on both alike.  Both files are
written in the format above, DIR's as BENCH_<label>-against.json.  Each
rung of this tree's file adds "against_ratio", "against_import_ratio"
and "against_rss_ratio", the medians over the rounds of its wall time,
its import time and its peak RSS over DIR's in the same round, and
"against_wins" and "against_import_wins", the rounds in which it took
less wall time and less import time.  The two trees must agree on every
result; a rung on which they disagree makes the script exit 1 without
writing.

Before the first round the script writes every file a rung reads to a
temporary directory with scripts/cli_digest.write_documents: heis3 of
benchmark/gen.py and sl2 (tests/corpus.py's SL2_BRACKETS), each in its
canonical basis and in gen.dense_basis, with the adjoint module of its
Lie quotient (lie:) and its adjoint two-sided module (rep:).  A betti or
cochains rung parses its algebra file before its clock starts.

A CLI rung is one `leibhom` invocation, leibhom.cli.entrypoint with
--quiet and --json, on those files: what a shell invocation pays after
the import, argument parser and axiom checks included.  The heis3 lie:
rung's nonzero action makes compare run its chain half a second time,
on the dual module.  The CLI builds the complexes of the "dense" CLI
rungs in the sparse bases leibcore.sparse_basis finds for the algebra
and for its module, where the dense betti rungs, which call
loday_complex directly, keep the dense one.

Run:  PYTHONPATH=src python3 scripts/ladder.py --label NAME [--rung NAME ...]
                                              [--out DIR] [--against CHECKOUT]
Rungs run in the order listed below; --rung picks some of them.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from cli_digest import gen, write_documents

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from corpus import SL2_BRACKETS  # noqa: E402

# name -> (function of the child, its arguments)
RUNGS = {
    "leibhom check heis3": ("cli", "check", "heis3.algebra.json"),
    "leibhom homology --max-degree 3 heis3":
        ("cli", "homology", "heis3.algebra.json", "--max-degree", "3"),
    "leibhom compare --max-degree 7 heis3":
        ("cli", "compare", "heis3.algebra.json", "--max-degree", "7"),
    "leibhom compare --max-degree 5 --coefficients lie:adjoint.json heis3":
        ("cli", "compare", "heis3.algebra.json", "--max-degree", "5",
         "--coefficients", "lie:heis3.lie.json"),
    "leibhom fg --max-degree 7 heis3": ("cli", "fg", "heis3.algebra.json", "--max-degree", "7"),
    "leibhom homology --max-degree 7 heis3 dense":
        ("cli", "homology", "heis3-dense.algebra.json", "--max-degree", "7"),
    "leibhom homology --max-degree 6 sl2 dense":
        ("cli", "homology", "sl2-dense.algebra.json", "--max-degree", "6"),
    "leibhom homology --max-degree 5 --coefficients rep:adjoint-rep.json heis3 dense":
        ("cli", "homology", "heis3-dense.algebra.json", "--max-degree", "5",
         "--coefficients", "rep:heis3-dense.rep.json"),
    "leibhom compare --max-degree 5 --coefficients lie:adjoint-lie.json heis3 dense":
        ("cli", "compare", "heis3-dense.algebra.json", "--max-degree", "5",
         "--coefficients", "lie:heis3-dense.lie.json"),
    "heis3 <= 6": ("betti", "heis3", 6),
    "heis3 <= 7": ("betti", "heis3", 7),
    "heis3 <= 8": ("betti", "heis3", 8),
    "heis3 <= 9": ("betti", "heis3", 9),
    "sl2 <= 7": ("betti", "sl2", 7),
    "sl2 <= 8": ("betti", "sl2", 8),
    "heis3 cochains <= 8": ("cobetti", "heis3", 8),
    "sl2 cochains <= 7": ("cobetti", "sl2", 7),
    "heis3 dense <= 7": ("betti", "heis3-dense", 7),
    "sl2 dense <= 6": ("betti", "sl2-dense", 6),
    "conjecture_check(1, 12)": ("conjecture", 1, 12),
    "conjecture_check(1, 14)": ("conjecture", 1, 14),
    "conjecture_check(2, 6)": ("conjecture", 2, 6),
    "conjecture_check(2, 7)": ("conjecture", 2, 7),
    "conjecture_check(2, 8)": ("conjecture", 2, 8),
    "conjecture_check(2, 9)": ("conjecture", 2, 9),
    "conjecture_check(2, 10)": ("conjecture", 2, 10),
    "conjecture_check(3, 4)": ("conjecture", 3, 4),
    "conjecture_check(3, 5)": ("conjecture", 3, 5),
    "conjecture_check(3, 6)": ("conjecture", 3, 6),
}
ROUNDS = 3

# the algebras whose files the rungs read; sl2 is a Lie algebra, its own
# Lie quotient
ALGEBRAS = {"heis3": gen.ALGEBRAS["heis3"],
            "sl2": {"basis": ["e", "f", "h"], "brackets": SL2_BRACKETS, "quotient": ("self", 0)}}

# the peak RSS of the process that runs it, in MB
PEAK_RSS = """
def peak_rss_mb():
    try:
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
    except (OSError, StopIteration):
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
"""

# every rung kind reads its input and hands back the work to time, which
# returns the result, or for a CLI rung a function that reads it
CHILD = PEAK_RSS + """
import json, sys, time
t0 = time.perf_counter()
from leibhom.cli import entrypoint, parse_algebra
from leibhom.homology import (conjecture_check, loday_cochain_complex, loday_complex,
                              trivial_coefficients)
import_s = time.perf_counter() - t0

def betti(stem, n, builder=loday_complex):
    # what `leibhom homology --max-degree n` runs
    g = parse_algebra(stem + ".algebra.json")[0]
    return lambda: list(builder(g, trivial_coefficients(), int(n) + 1).betti())

def cobetti(stem, n):
    # what `leibhom cohomology --max-degree n` runs
    return betti(stem, n, loday_cochain_complex)

def conjecture(d, w):
    def work():
        rep = conjecture_check(int(d), int(w))
        return {"verdict": rep.verdict, "h1": [v.h1 for v in rep.weights],
                "higher": [list(v.higher) for v in rep.weights]}
    return work

def cli(*argv):
    def work():
        code = entrypoint([*argv, "--quiet", "--json", "report.json"])
        def result():
            with open("report.json") as fh:
                report = json.load(fh)
            return {"exit": code, "tables": report["tables"], "verdicts": report["verdicts"]}
        return result
    return work

work = {"betti": betti, "cobetti": cobetti, "conjecture": conjecture,
        "cli": cli}[sys.argv[1]](*sys.argv[2:])
t0 = time.perf_counter()
result = work()
wall = time.perf_counter() - t0
if callable(result):
    result = result()
print(json.dumps({"wall_s": round(wall, 4), "import_s": round(import_s, 4),
                  "peak_rss_mb": round(peak_rss_mb(), 1), "result": result}))
"""


def run_rung(src: Path, workdir: str, func: str, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, func, *map(str, args)], cwd=workdir,
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def summary(name: str, got: list[dict]) -> dict:
    """The record of one rung on one tree from its runs."""
    if any(g["result"] != got[0]["result"] for g in got):
        raise SystemExit(f"{name}: the runs disagree on the result")
    samples = [g["wall_s"] for g in got]
    imports = [g["import_s"] for g in got]
    return {"name": name, "wall_s": statistics.median(samples), "wall_samples": samples,
            "import_s": statistics.median(imports), "import_samples": imports,
            "peak_rss_mb": max(g["peak_rss_mb"] for g in got), "result": got[0]["result"]}


def cli_import(src: Path) -> dict:
    """The line count of the leibhom modules `import leibhom.cli` loads and
    the peak RSS of a `python -S` child that imports it."""
    code = PEAK_RSS + (
        "import json, sys, leibhom.cli\n"
        "print(json.dumps([round(peak_rss_mb(), 1), sorted(m.__file__ "
        "for name, m in sys.modules.items() if name.split('.')[0] == 'leibhom')]))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    rss_mb, files = json.loads(proc.stdout)
    return {"cli_lines": sum(Path(f).read_bytes().count(b"\n") for f in files),
            "cli_rss_mb": rss_mb}


def median_ratio(mine: list[dict], theirs: list[dict], key: str) -> float:
    """The median over the rounds of mine[key] / theirs[key]."""
    return round(statistics.median(a[key] / b[key] for a, b in zip(mine, theirs)), 4)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--rung", action="append", choices=list(RUNGS),
                        help="run only this rung (repeatable)")
    parser.add_argument("--out", type=Path, default=ROOT)
    parser.add_argument("--against", type=Path,
                        help="another checkout to run round by round beside this one")
    args = parser.parse_args()
    names = [n for n in RUNGS if args.rung is None or n in args.rung]
    trees = [ROOT] + ([args.against.resolve()] if args.against else [])
    rounds = ROUNDS * len(trees)
    runs = {name: [[] for _ in trees] for name in names}
    with tempfile.TemporaryDirectory() as workdir:
        write_documents(ALGEBRAS, workdir)
        for r in range(1, rounds + 1):
            for name in names:
                for t in (range(len(trees)) if r % 2 else reversed(range(len(trees)))):
                    got = run_rung(trees[t] / "src", workdir, *RUNGS[name])
                    print(f"{r}/{rounds} {'AB'[t]} {name:<38} {got['wall_s']:8.4f} s "
                          f"{got['peak_rss_mb']:8.1f} MB  import {got['import_s']:.4f} s",
                          flush=True)
                    runs[name][t].append(got)
    files = [[summary(name, got[t]) for name, got in runs.items()] for t in range(len(trees))]
    if args.against:
        mine, theirs = files
        disagree = [a["name"] for a, b in zip(mine, theirs) if a["result"] != b["result"]]
        if disagree:
            raise SystemExit(f"the trees disagree on the result of {', '.join(disagree)}")
        for rung, (a, b) in zip(mine, runs.values()):
            for key, tag in (("wall_s", ""), ("import_s", "import_")):
                rung[f"against_{tag}ratio"] = median_ratio(a, b, key)
                rung[f"against_{tag}wins"] = sum(x[key] < y[key] for x, y in zip(a, b))
            rung["against_rss_ratio"] = median_ratio(a, b, "peak_rss_mb")
    labels = [args.label, f"{args.label}-against"]
    for t, tree in enumerate(trees):
        meta = {"label": labels[t], "python": platform.python_version(),
                "machine": platform.machine(), "cpus": os.cpu_count(),
                "src_lines": sum(p.read_bytes().count(b"\n")
                                 for p in (tree / "src" / "leibhom").glob("*.py")),
                **cli_import(tree / "src")}
        if args.against:
            meta["paired_with"] = labels[1 - t]
        # one rung per line, so two ladder files diff line by line
        body = ",\n".join("  " + json.dumps(r) for r in files[t])
        path = args.out / f"BENCH_{labels[t]}.json"
        path.write_text(json.dumps(meta)[:-1] + ', "rungs": [\n' + body + "\n]}\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
