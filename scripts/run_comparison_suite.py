"""Tensor complex vs enveloping-algebra complex across the standard corpus.

Builds the degree-1-product projection for each algebra and coefficient
system, verifies it is a chain map, and prints the induced maps' behaviour
in low degrees.

Run:  python3 scripts/run_comparison_suite.py [N]
"""

import sys
from fractions import Fraction

from leibhom.homology import ce_projection, trivial_coefficients
from leibhom.leibcore import (
    LeibnizAlgebra,
    LieModule,
    check_lie_module,
    lie_quotient,
    tensor3,
)


def corpus():
    yield "abelian1", LeibnizAlgebra.from_brackets(["a"], {})
    yield "abelian2", LeibnizAlgebra.from_brackets(["a", "b"], {})
    yield "A2", LeibnizAlgebra.from_brackets(["x", "y"], {(0, 0): {1: 1}})
    yield "r2", LeibnizAlgebra.from_brackets(
        ["a", "b"], {(0, 1): {1: 1}, (1, 0): {1: -1}})
    yield "heis3", LeibnizAlgebra.from_brackets(
        ["p", "q", "z"], {(0, 1): {2: 1}, (1, 0): {2: -1}})


def coefficient_systems(g):
    yield "trivial", trivial_coefficients()
    qdata = lie_quotient(g)
    r = qdata.quotient.dim
    if r:
        mod = LieModule(r, qdata.quotient.structure)
        if not check_lie_module(qdata.quotient, mod):
            yield "ad(g_Lie)", mod
    # a rank-1 character when the quotient has one: first generator acts as 1
    if r:
        act = tensor3(r, 1, 1, {(0, 0, 0): Fraction(1)})
        mod = LieModule(1, act)
        if not check_lie_module(qdata.quotient, mod):
            yield "character", mod


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    bad = []
    for gname, g in corpus():
        for cname, coeffs in coefficient_systems(g):
            _, _, rep = ce_projection(g, coeffs, n)
            verdicts = [rep.h0_iso, rep.h1_iso,
                        rep.hl2_to_h2_surjective, rep.h2_to_hl2_injective]
            flat = " ".join("-" if v is None else ("ok" if v else "NO")
                            for v in verdicts)
            print(f"{gname:>9} {cname:>10}  tensor {list(rep.loday_homology)} "
                  f"envelope {list(rep.ce_homology)}  "
                  f"[h0 h1 onto2 into2] {flat}")
            if any(v is False for v in verdicts):
                bad.append((gname, cname))
    if bad:
        print("FAILED:", bad)
        return 1
    print("all comparison verdicts hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
