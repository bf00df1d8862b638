"""One sha256 over the values the library computes, for comparing two trees.

Covers the corpus of tests/corpus.py, seeded random algebras and heis3
rescaled to structure constants with denominators, each with every
coefficient kind: the Loday chain and cochain complexes (with
their cycle and boundary spaces in every degree they report), the enveloping-algebra
complexes and projections, the maximal Lie quotient, the minimal
envelope and modules, the commutator subcomplex, the classical
complexes of the Lie corpus, and conjecture_check at (1,6), (2,5), (3,3).
Only values are hashed: matrix entries as a dense table, Betti numbers,
pivots and the fields of every report.  A bracket or action table is
hashed as the dense tensor t[i][j][k] of its structure constants.  How a
matrix or a tensor is stored never enters, so two trees that compute the
same numbers print the same digest.

Run:  PYTHONPATH=src python3 scripts/result_digest.py [--max-degree N]
"""

import argparse
import hashlib
import random
import sys
from fractions import Fraction
from pathlib import Path

from leibhom.dgcat import DGModule, classical_ce, classical_ce_cochain, minimal_module
from leibhom.dgla import DGLieAlgebra, minimal_envelope
from leibhom.exactla import Matrix, Subspace
from leibhom.homology import (
    ChainComplex,
    ce_chain,
    ce_cochain,
    ce_projection,
    conjecture_check,
    fg_subcomplex,
    loday_cochain_complex,
    loday_complex,
    trivial_coefficients,
)
from leibhom.leibcore import (
    LeibnizAlgebra,
    LieAlgebra,
    LieModule,
    QuotientData,
    Representation,
    adjoint_lie_module,
    symmetrization,
)

# the corpus and coefficient helpers the test suite shares
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from corpus import (  # noqa: E402
    CORPUS,
    LIE_CORPUS,
    character_module,
    dense,
    quotient_adjoint_module,
    random_algebra,
    representations_for,
    rescaled_heis3,
)

RANDOM_SEEDS = range(6)


def dense_tables(obj) -> dict:
    """The structure tables among the fields of obj, by field name, each
    as its dense tensor."""
    if isinstance(obj, (LeibnizAlgebra, LieAlgebra)):
        return {"structure": dense(obj.structure, obj.dim, obj.dim)}
    if isinstance(obj, Representation):
        n = obj.left_action.cols // obj.dim
        return {"left_action": dense(obj.left_action, n, obj.dim),
                "right_action": dense(obj.right_action, obj.dim, n)}
    if isinstance(obj, LieModule):
        return {"action": dense(obj.action, obj.action.cols // obj.dim, obj.dim)}
    if isinstance(obj, QuotientData):
        return {"action_on_g": dense(obj.action_on_g, obj.quotient.dim, obj.projection.cols)}
    if isinstance(obj, DGLieAlgebra):
        return {"brackets": {(p, q): dense(t, obj.dim(p), obj.dim(q))
                             for (p, q), t in obj.brackets.items()}}
    if isinstance(obj, DGModule):
        return {"actions": {(p, q): dense(t, obj.algebra.dim(p), obj.dim(q))
                            for (p, q), t in obj.actions.items()}}
    return {}


def feed(h, obj) -> None:
    """Hash obj by value, recursing through containers and the fields of
    the package's classes, which each lists in order in __match_args__."""
    if isinstance(obj, Matrix):
        feed(h, ("Matrix", obj.rows, obj.cols, obj.entries))
    elif isinstance(obj, Subspace):
        feed(h, ("Subspace", obj.ambient_dim, obj.pivots, obj.basis))
    elif isinstance(obj, ChainComplex):
        degrees = obj.degree_range()
        feed(h, ("ChainComplex", obj.offset, obj.dims, obj.raising, obj.diffs, obj.betti(),
                 [obj.cycle_space(k) for k in degrees], [obj.boundary_space(k) for k in degrees]))
    elif hasattr(type(obj), "__match_args__"):
        tables = dense_tables(obj)
        feed(h, (type(obj).__name__,
                 [(name, tables[name] if name in tables else getattr(obj, name))
                  for name in type(obj).__match_args__]))
    elif isinstance(obj, dict):
        feed(h, ("dict", sorted(obj.items(), key=lambda kv: repr(kv[0]))))
    elif isinstance(obj, (tuple, list)):
        h.update(b"(")
        for x in obj:
            feed(h, x)
            h.update(b",")
        h.update(b")")
    elif isinstance(obj, (bool, str)) or obj is None:
        h.update(repr(obj).encode())
    elif isinstance(obj, (int, Fraction)):
        h.update(str(obj).encode())
    else:
        raise TypeError(f"no value digest for {type(obj).__name__}")


def coefficient_kinds(g, qdata):
    yield "trivial1", trivial_coefficients()
    yield "trivial2", trivial_coefficients(2)
    for name, rep in representations_for(g).items():
        yield f"rep:{name}", rep
    for name, mod in (("adjoint", quotient_adjoint_module(qdata)),
                      ("character", character_module(qdata))):
        if mod is not None:
            yield f"lie:{name}", mod


def results(n: int):
    """(label, value) for every hashed result, in a fixed order."""
    algebras = list(CORPUS.items()) + [
        (f"random{s}", random_algebra(random.Random(s))) for s in RANDOM_SEEDS]
    algebras.append(("heis3 rescaled", rescaled_heis3()))
    for gname, g in algebras:
        qdata = g.quotient_data
        yield gname, g
        yield f"{gname} lie_quotient", qdata
        yield f"{gname} minimal_envelope", minimal_envelope(g)
        yield f"{gname} fg_subcomplex", fg_subcomplex(g, n + 1)
        for rname, rep in representations_for(g).items():
            yield f"{gname} {rname} symmetrization", symmetrization(rep)
            yield f"{gname} {rname} minimal_module", minimal_module(g, rep)
        for cname, coeffs in coefficient_kinds(g, qdata):
            label = f"{gname} {cname}"
            yield f"{label} loday", loday_complex(g, coeffs, n)
            yield f"{label} loday_cochain", loday_cochain_complex(g, coeffs, n)
            if not isinstance(coeffs, Representation):
                yield f"{label} ce", ce_chain(g, coeffs, n)
                yield f"{label} ce_cochain", ce_cochain(g, coeffs, n)
                yield f"{label} ce_projection", ce_projection(g, coeffs, n)
    for hname, h in LIE_CORPUS.items():
        for mname, coeffs in (("trivial", trivial_coefficients()),
                              ("adjoint", adjoint_lie_module(h))):
            yield f"{hname} {mname} classical", classical_ce(h, coeffs, n)
            yield f"{hname} {mname} classical_cochain", classical_ce_cochain(h, coeffs, n)
    for d, w in ((1, 6), (2, 5), (3, 3)):
        yield f"conjecture {d} {w}", conjecture_check(d, w)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-degree", type=int, default=3)
    args = parser.parse_args()
    h = hashlib.sha256()
    for label, value in results(args.max_degree):
        feed(h, label)
        feed(h, value)
    print(h.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
