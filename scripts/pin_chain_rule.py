"""Which action rule keeps d o d = 0 with two-sided module coefficients?

Scans every candidate rule for the tensor-module boundary and coboundary
over a corpus of algebras and modules, recording where the composite of
adjacent differentials fails to vanish.  The rules are the builder's own
table, CHAIN_RULES; a coboundary is the transposed boundary of the dual
module, so its column runs the same rules on the dual.  Checks that every
dual module is a representation, and that the two-sided branch with
lifted (anti-symmetric) coefficients reproduces the one-sided branch
matrix-for-matrix, the chain side under the "right" rule and the cochain
side under the pinned one, which is what justifies treating the
one-sided code path as a special case.

Run:  python3 scripts/pin_chain_rule.py [N_max]

Exits nonzero if the pinned canonical rule ("corrected") fails anywhere,
if a dual module fails the representation identities, or if a rule
expected to fail passes everywhere.
"""

import sys
from fractions import Fraction

from leibhom.homology import (
    CHAIN_RULES,
    DifferentialSquareNonzero,
    REP_CHAIN_RULE,
    _dual,
    loday_cochain_complex,
    loday_complex,
)
from leibhom.leibcore import (
    LeibnizAlgebra,
    LieModule,
    adjoint_representation,
    check_lie_module,
    check_representation,
    lie_module_lift,
    lie_quotient,
    tensor3,
    trivial_representation,
)

def algebras():
    yield "abelian2", LeibnizAlgebra.from_brackets(["a", "b"], {})
    yield "A2", LeibnizAlgebra.from_brackets(["x", "y"], {(0, 0): {1: 1}})
    yield "hemi2", LeibnizAlgebra.from_brackets(["e1", "e2"], {(0, 1): {1: 1}})
    yield "r2", LeibnizAlgebra.from_brackets(
        ["a", "b"], {(0, 1): {1: 1}, (1, 0): {1: -1}})
    yield "heis3", LeibnizAlgebra.from_brackets(
        ["p", "q", "z"], {(0, 1): {2: 1}, (1, 0): {2: -1}})
    yield "A2+k", LeibnizAlgebra.from_brackets(
        ["x", "y", "t"], {(0, 0): {1: 1}})
    # a conjugated copy of hemi2: same algebra in a basis where nothing
    # is triangular, to make sure no rule passes by coordinate accident
    p = [[1, 1], [1, 2]]  # det 1
    pinv = [[2, -1], [-1, 1]]
    base = LeibnizAlgebra.from_brackets(["u", "v"], {(0, 1): {1: 1}})
    brackets = {}
    for i in range(2):
        for j in range(2):
            out = [Fraction(0)] * 2
            for a in range(2):
                for b in range(2):
                    vec = [row[a * 2 + b] for row in base.structure.entries]
                    coeff = Fraction(p[a][i] * p[b][j])
                    for k in range(2):
                        for l in range(2):
                            out[l] += coeff * vec[k] * pinv[l][k]
            brackets[(i, j)] = {l: c for l, c in enumerate(out) if c}
    yield "hemi2conj", LeibnizAlgebra.from_brackets(["u", "v"], brackets)


def modules(name, g):
    adj = adjoint_representation(g)
    assert not check_representation(g, adj)
    yield "adjoint", adj
    yield "trivial", trivial_representation(g, 1)
    qdata = lie_quotient(g)
    r = qdata.quotient.dim
    # lifted one-sided modules: the quotient acting on itself
    if r:
        mod = LieModule(r, qdata.quotient.structure)
        if not check_lie_module(qdata.quotient, mod):
            yield "lift-adq", lie_module_lift(g, mod)
    if name == "r2":
        # the character a.m = m, b.m = 0 on the 1-dim module
        act = tensor3(2, 1, 1, {(0, 0, 0): Fraction(1)})
        mod = LieModule(1, act)
        assert not check_lie_module(qdata.quotient, mod)
        yield "lift-char", lie_module_lift(g, mod)


def d_square_holds(build, *args, **kwargs):
    try:
        build(*args, **kwargs)
        return True
    except DifferentialSquareNonzero:
        return False


def main():
    n_max = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    chain_fail = {rule: [] for rule in CHAIN_RULES}
    cochain_fail = {rule: [] for rule in CHAIN_RULES}
    lift_mismatch, bad_duals = [], []

    for gname, g in algebras():
        qdata = lie_quotient(g)
        for mname, rep in modules(gname, g):
            tag = f"{gname}/{mname}"
            if check_representation(g, _dual(g, rep)):
                bad_duals.append(tag)
            for rule in CHAIN_RULES:
                if not d_square_holds(loday_complex, g, rep, n_max, _rep_rule=rule):
                    chain_fail[rule].append(tag)
                if not d_square_holds(loday_cochain_complex, g, rep, n_max, _rep_rule=rule):
                    cochain_fail[rule].append(tag)

        # lifted coefficients: two-sided branch vs one-sided branch
        r = qdata.quotient.dim
        if r:
            mod = LieModule(r, qdata.quotient.structure)
            if check_lie_module(qdata.quotient, mod):
                continue
            lift = lie_module_lift(g, mod)
            for side, build, rule in (("chain", loday_complex, "right"),
                                      ("cochain", loday_cochain_complex, REP_CHAIN_RULE)):
                one = build(g, mod, n_max)
                two = build(g, lift, n_max, _rep_rule=rule)
                if one.diffs != two.diffs:
                    lift_mismatch.append(f"{gname} ({side})")

    print(f"tensor-module boundary, N_max = {n_max}")
    for rule in CHAIN_RULES:
        bad = chain_fail[rule]
        mark = "pass everywhere" if not bad else f"FAILS on {', '.join(bad)}"
        print(f"  chain   {rule:10s} {mark}")
    for rule in CHAIN_RULES:
        bad = cochain_fail[rule]
        mark = "pass everywhere" if not bad else f"FAILS on {', '.join(bad)}"
        print(f"  cochain {rule:10s} {mark}")
    if lift_mismatch:
        print(f"  lifted-coefficient mismatch: {lift_mismatch}")
    else:
        print("  lifted coefficients: two-sided chain (right) and cochain "
              f"({REP_CHAIN_RULE}) == one-sided, matrix for matrix")
    if bad_duals:
        print(f"  dual module not a representation: {', '.join(bad_duals)}")
    else:
        print("  every dual module is a representation")

    ok = not bad_duals
    if chain_fail[REP_CHAIN_RULE] or cochain_fail[REP_CHAIN_RULE]:
        print("PINNED RULE FAILS THE GATE")
        ok = False
    if not chain_fail["right"]:
        print("expected the right-action chain rule to fail somewhere; it did not")
        ok = False
    if not cochain_fail["naive"]:
        print("expected the naive cochain rule to fail somewhere; it did not")
        ok = False
    if lift_mismatch:
        ok = False
    print("verdict:", "rules pinned" if ok else "INCONSISTENT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
