"""One sha256 over the CLI's reports on a fixed job matrix, for comparing two trees.

The matrix: check, quotient and fg, and homology, cohomology,
ce-homology, ce-cohomology and compare with trivial, lie: and rep:
coefficients, all at --max-degree 3 on heis3, a2k, fil4 and hemi2, each
written in its canonical basis and in benchmark/gen.dense_basis; then
free-conjecture at (1, 6), (2, 5) and (3, 3).  The algebra and module
files come from the document writers of benchmark/gen.py.

Every job runs in this process through leibhom.cli.entrypoint, in a
temporary working directory with relative paths, so the reports do not
depend on where the tree lives.  The digest covers each job's argv, exit
code, stdout, stderr and JSON report without its "timing" section: two
trees whose CLI prints the same thing print the same digest.  Before any
report is hashed its bytes are checked to be json.dumps of its value with
sort_keys=True and indent=2, plus a newline; a report that is not ends
the run with exit 1 and names its argv.

Run:  PYTHONPATH=src python3 scripts/cli_digest.py
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from leibhom.cli import entrypoint

ROOT = Path(__file__).resolve().parent.parent
# benchmark/gen.py, loaded by its path under a private name, so that its
# directory's modules (gen, run, layers, ...) shadow nothing of an importer
_spec = importlib.util.spec_from_file_location("_cli_digest_gen", ROOT / "benchmark" / "gen.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

ALGEBRAS = {name: gen.ALGEBRAS[name] for name in ("heis3", "a2k", "fil4", "hemi2")}
MAX_DEGREE = "3"
BETTI_COMMANDS = ("homology", "cohomology", "ce-homology", "ce-cohomology", "compare")
FREE_CONJECTURE = ((1, 6), (2, 5), (3, 3))


def write_documents(algebras: dict[str, dict], directory: str) -> list[str]:
    """Write every algebra, given as a spec of benchmark/gen.py, in both
    bases to directory as <stem>.algebra.json, each with its lie: and rep:
    module files; the file stems, in order."""
    stems = []
    for name, spec in algebras.items():
        basis = list(spec["basis"])
        dense = gen.change_basis(spec["brackets"], gen.dense_basis(len(basis)))
        for stem, brackets in ((name, dict(spec["brackets"])), (f"{name}-dense", dense)):
            docs = {"algebra": gen.algebra_document(name, basis, brackets),
                    "lie": gen.lie_document(spec, basis, brackets),
                    "rep": gen.rep_document(basis, brackets)}
            for kind, doc in docs.items():
                Path(directory, f"{stem}.{kind}.json").write_text(json.dumps(doc, sort_keys=True))
            stems.append(stem)
    return stems


def jobs(stems: list[str]):
    """Every argv of the matrix, without --json."""
    for stem in stems:
        algebra = f"{stem}.algebra.json"
        yield ["check", algebra]
        yield ["quotient", algebra]
        yield ["fg", algebra, "--max-degree", MAX_DEGREE]
        for command in BETTI_COMMANDS:
            for coefficients in ("trivial", f"lie:{stem}.lie.json", f"rep:{stem}.rep.json"):
                yield [command, algebra, "--max-degree", MAX_DEGREE,
                       "--coefficients", coefficients]
    for d, w in FREE_CONJECTURE:
        yield ["free-conjecture", "--generators", str(d), "--max-weight", str(w)]


def run_job(argv: list[str]) -> tuple[list, str | None]:
    """([argv, exit code, stdout, stderr, report without timing], the text
    of the report file, None if the job wrote none)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = entrypoint([*argv, "--json", "report.json"])
    report = text = None
    if os.path.exists("report.json"):
        text = Path("report.json").read_text(encoding="utf-8")
        report = json.loads(text)
        report.pop("timing", None)
        os.remove("report.json")
    return [argv, code, out.getvalue(), err.getvalue(), report], text


def canonical(text: str) -> str:
    """The report text holds, written as json.dumps writes it with sorted
    keys and a two-space indent, plus a newline."""
    return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def main() -> int:
    h = hashlib.sha256()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for argv in jobs(write_documents(ALGEBRAS, workdir)):
                record, text = run_job(argv)
                if text is not None and text != canonical(text):
                    print(f"report of {' '.join(argv)} is not in the canonical JSON form",
                          file=sys.stderr)
                    return 1
                h.update(json.dumps(record, sort_keys=True).encode() + b"\n")
        finally:
            os.chdir(cwd)
    print(h.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
