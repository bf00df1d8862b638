"""Seeded inputs and fixed job lists for the three benchmark workloads.

The seed only changes the basis in which each algebra is written: a
reordering with fresh names for `tensor-sparse` and `free-vanishing`, a
unimodular change of basis for `modules-generic`.  Every value the golden
check compares (Betti numbers, dims, comparison ranks, fg homology,
verdicts) is invariant under a change of basis, and the coefficient
modules are natural (adjoint) ones, so one golden per job holds for every
seed.

Files follow the README formats: every rational is a string, brackets and
actions are sparse {"left", "right", "value"} tables keyed by basis names.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction

# Canonical bases.  `quotient` says how the maximal Lie quotient looks,
# which fixes the `lie:` module (adjoint module of the quotient) without
# depending on which quotient basis the program picks:
#   ("self", 0)     the squares span zero, the quotient is g itself
#   ("abelian", r)  the quotient is abelian of dimension r, so its adjoint
#                   module is the r-dimensional module with zero action
ALGEBRAS = {
    "heis3": {"basis": ["p", "q", "z"],
              "brackets": {(0, 1): {2: 1}, (1, 0): {2: -1}},
              "quotient": ("self", 0)},
    "a2k": {"basis": ["x", "y", "t"],
            "brackets": {(0, 0): {1: 1}},
            "quotient": ("abelian", 2)},
    "fil4": {"basis": ["e1", "e2", "e3", "e4"],
             "brackets": {(0, 0): {1: 1}, (0, 1): {2: 1}, (0, 2): {3: 1}},
             "quotient": ("abelian", 1)},
    "hemi2": {"basis": ["e1", "e2"],
              "brackets": {(0, 1): {1: 1}},
              "quotient": ("abelian", 1)},
}

# Jobs are tuples.  CLI jobs: (command, algebra, max_degree, coefficients)
# with coefficients one of "trivial", "lie", "rep"; ("check", algebra);
# ("fg", algebra, max_degree); ("free-conjecture", generators,
# max_weight).  ("conjecture_check", generators, max_weight) is the
# library call scripts/run_free_conjecture.py makes above the CLI budget.
#
# The ladders stop below the rungs that take tens of seconds each at the
# seed commit (`homology heis3 --max-degree 6`, `conjecture_check(2, 6)`),
# so that a run holds a whole cycle of passes (see VARIANTS).
WORKLOADS = {
    # Rank-bound: trivial coefficients, boundaries sparse and coordinate
    # graded.  Exercises sparse rank, rank caching and grading splits.
    "tensor-sparse": {
        "transform": "permute",
        "jobs": [
            ("check", "heis3"),
            ("homology", "heis3", 3, "trivial"),
            ("homology", "heis3", 4, "trivial"),
            ("cohomology", "heis3", 4, "trivial"),
            ("homology", "heis3", 5, "trivial"),
            ("cohomology", "a2k", 4, "trivial"),
            ("homology", "a2k", 5, "trivial"),
            ("homology", "fil4", 3, "trivial"),
            ("cohomology", "fil4", 3, "trivial"),
        ],
    },
    # Same layers, used differently: dense boundaries after a unimodular
    # basis change, larger integers, m > 1 coefficient blocks, no
    # coordinate grading, kernel-heavy induced maps, PBW, cochain builders.
    "modules-generic": {
        "transform": "unimodular",
        "jobs": [
            ("check", "hemi2"),
            ("compare", "heis3", 3, "lie"),
            ("compare", "a2k", 4, "lie"),
            ("compare", "hemi2", 4, "lie"),
            ("homology", "heis3", 3, "rep"),
            ("cohomology", "heis3", 3, "rep"),
            ("homology", "hemi2", 5, "rep"),
            ("cohomology", "hemi2", 5, "rep"),
            ("homology", "a2k", 4, "trivial"),
            ("homology", "heis3", 4, "trivial"),
        ],
    },
    # Subspace restriction and free-algebra brackets, not rank: bypasses a
    # rank optimisation.
    "free-vanishing": {
        "transform": "permute",
        "jobs": [
            ("free-conjecture", 1, 6),
            ("free-conjecture", 2, 5),
            ("free-conjecture", 3, 3),
            ("conjecture_check", 3, 4),
            ("fg", "heis3", 4),
            ("fg", "a2k", 4),
            ("fg", "hemi2", 5),
        ],
    },
}

# Bases per run.  Pass k runs the job list on variant k mod VARIANTS, and a
# run ends on a whole number of cycles through the variants.  Each
# algebra's orderings are dealt from a seeded shuffle of all of them, so
# one cycle sees every ordering of a 3-dimensional algebra exactly once:
# the seed changes the pattern of the work, not its amount.  (Dense rank
# costs up to twice as much on one ordering as on another, so one draw per
# run would make the seed change the amount of work.)
VARIANTS = 6

_NAME_LETTERS = "abcdfghjkmnrsuvw"


def job_id(job: tuple) -> str:
    return "-".join(str(p) for p in job)


def _fresh_names(rng: random.Random, n: int) -> list[str]:
    names: list[str] = []
    while len(names) < n:
        s = rng.choice(_NAME_LETTERS) + str(rng.randrange(100))
        if s not in names:
            names.append(s)
    return names


def permutation_bases(rng: random.Random, n: int, count: int) -> list[list[list[int]]]:
    """count permutation matrices P (f_i = e_{perm[i]}), dealt from a
    seeded shuffle of all n! permutations and cycling through it."""
    perms = list(itertools.permutations(range(n)))
    rng.shuffle(perms)
    return [[[int(a == perm[i]) for i in range(n)] for a in range(n)]
            for perm in itertools.islice(itertools.cycle(perms), count)]


def dense_basis(n: int) -> list[list[int]]:
    """A fixed P in SL_n(Z): the n(n-1) elementary operations
    row_i += (-1)^(i+j) row_j, first below the diagonal, then above.  Every
    new basis vector mixes the old ones, so the boundaries lose their
    coordinate grading and sparsity."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    ops = ([(i, j) for j in range(n) for i in range(j + 1, n)]
           + [(i, j) for j in reversed(range(n)) for i in reversed(range(j))])
    for i, j in ops:
        for k in range(n):
            p[i][k] += (-1) ** (i + j) * p[j][k]
    return p


def unimodular_bases(rng: random.Random, n: int, count: int) -> list[list[list[int]]]:
    """count unimodular matrices Q . dense_basis(n), Q the permutations of
    permutation_bases: a fixed-size family, a fixed count of elementary
    operations with multipliers +-1 applied to a reordered basis."""
    d = dense_basis(n)
    return [[[sum(q[a][b] * d[b][i] for b in range(n)) for i in range(n)] for a in range(n)]
            for q in permutation_bases(rng, n, count)]


def _inverse(p: list[list[int]]) -> list[list[Fraction]]:
    n = len(p)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(p)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c])
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def change_basis(brackets: dict, p: list[list[int]]) -> dict:
    """Structure constants in the basis f_i = sum_a p[a][i] e_a."""
    n = len(p)
    pinv = _inverse(p)
    out = {}
    for i in range(n):
        for j in range(n):
            vec = [Fraction(0)] * n
            for a in range(n):
                for b in range(n):
                    coeff = p[a][i] * p[b][j]
                    if not coeff:
                        continue
                    for k, c in brackets.get((a, b), {}).items():
                        for m in range(n):
                            vec[m] += coeff * c * pinv[m][k]
            entry = {m: c for m, c in enumerate(vec) if c}
            if entry:
                out[(i, j)] = entry
    return out


def _table(brackets: dict, left: list[str], right: list[str], value: list[str]) -> list:
    return [{"left": left[i], "right": right[j],
             "value": {value[k]: str(Fraction(c)) for k, c in sorted(vec.items())}}
            for (i, j), vec in sorted(brackets.items())]


def algebra_document(name: str, basis: list[str], brackets: dict) -> dict:
    return {"name": name, "convention": "left", "basis": basis,
            "brackets": _table(brackets, basis, basis, basis)}


def rep_document(basis: list[str], brackets: dict) -> dict:
    """Adjoint two-sided module: [x, m] and [m, x] are the bracket of g."""
    mods = [f"m_{s}" for s in basis]
    return {"basis": mods,
            "left_action": _table(brackets, basis, mods, mods),
            "right_action": _table(brackets, mods, basis, mods)}


def lie_document(spec: dict, basis: list[str], brackets: dict) -> dict:
    """Adjoint module of the maximal Lie quotient (see ALGEBRAS)."""
    kind, r = spec["quotient"]
    if kind == "abelian":
        return {"basis": [f"m{i}" for i in range(r)], "action": []}
    mods = [f"m_{s}" for s in basis]
    return {"basis": mods,
            "action": _table(brackets, [f"{s}~" for s in basis], mods, mods)}


def algebras_used(workload: str) -> list[str]:
    return sorted({j[1] for j in WORKLOADS[workload]["jobs"] if isinstance(j[1], str)})


def generate(workload: str, seed: int | None, outdir: str) -> list[dict[str, dict[str, str]]]:
    """Write the workload's VARIANTS input variants under outdir and return
    one {algebra: {"algebra": path, "lie": path, "rep": path}} per variant.
    seed=None writes the canonical bases once (the golden outputs)."""
    os.makedirs(outdir, exist_ok=True)
    rng = random.Random(seed)
    algs = algebras_used(workload)
    if seed is None:
        count, bases = 1, {alg: [None] for alg in algs}
    else:
        count = VARIANTS
        draw = (permutation_bases if WORKLOADS[workload]["transform"] == "permute"
                else unimodular_bases)
        bases = {alg: draw(rng, len(ALGEBRAS[alg]["basis"]), count) for alg in algs}
    variants = []
    for v in range(count):
        paths: dict[str, dict[str, str]] = {}
        for alg in algs:
            spec = ALGEBRAS[alg]
            p = bases[alg][v]
            if p is None:
                basis, brackets = list(spec["basis"]), dict(spec["brackets"])
            else:
                basis, brackets = _fresh_names(rng, len(p)), change_basis(spec["brackets"], p)
            docs = {"algebra": algebra_document(alg, basis, brackets),
                    "lie": lie_document(spec, basis, brackets),
                    "rep": rep_document(basis, brackets)}
            paths[alg] = {}
            for kind, doc in docs.items():
                path = os.path.join(outdir, f"{alg}.v{v}.{kind}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh, sort_keys=True, indent=1)
                paths[alg][kind] = path
        variants.append(paths)
    return variants


def argv_for(job: tuple, paths: dict[str, dict[str, str]]) -> list[str]:
    """CLI argument vector for a CLI job (without --json/--quiet)."""
    cmd = job[0]
    if cmd == "free-conjecture":
        return [cmd, "--generators", str(job[1]), "--max-weight", str(job[2])]
    alg = paths[job[1]]["algebra"]
    if cmd == "check":
        return [cmd, alg]
    if cmd == "fg":
        return [cmd, alg, "--max-degree", str(job[2])]
    coeff = job[3] if job[3] == "trivial" else f"{job[3]}:{paths[job[1]][job[3]]}"
    return [cmd, alg, "--max-degree", str(job[2]), "--coefficients", coeff]
