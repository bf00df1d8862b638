"""The small algebras, coefficient systems and basis changes that the
tests and the scripts share.  It imports the library only, so a script
can read it on an interpreter without pytest."""

import random
from fractions import Fraction

from leibhom.leibcore import (
    LeibnizAlgebra,
    LieAlgebra,
    LieModule,
    Representation,
    adjoint_representation,
    check_leibniz,
    check_lie_module,
    check_representation,
    lie_module_lift,
    lie_quotient,
    tensor3,
    trivial_representation,
)


def dense(t, a, b):
    """The table t of a bilinear map k^a x k^b -> k^c as the dense tensor
    t[i][j][k] of Fractions: column i*b + j holds [e_i, e_j]."""
    cols = t.transpose().entries
    return tuple(tuple(cols[i * b + j] for j in range(b)) for i in range(a))


def make_corpus() -> dict[str, LeibnizAlgebra]:
    return {
        "abelian1": LeibnizAlgebra.from_brackets(["a"], {}),
        "abelian2": LeibnizAlgebra.from_brackets(["a", "b"], {}),
        "abelian3": LeibnizAlgebra.from_brackets(["a", "b", "c"], {}),
        # [x,x] = y, the smallest algebra that is not a Lie algebra
        "A2": LeibnizAlgebra.from_brackets(["x", "y"], {(0, 0): {1: 1}}),
        # the nonabelian 2-dim Lie algebra
        "r2": LeibnizAlgebra.from_brackets(
            ["a", "b"], {(0, 1): {1: 1}, (1, 0): {1: -1}}),
        # Heisenberg
        "heis3": LeibnizAlgebra.from_brackets(
            ["p", "q", "z"], {(0, 1): {2: 1}, (1, 0): {2: -1}}),
        # one-sided: [e1,e2] = e2 and nothing else (not anti-symmetric)
        "hemi2": LeibnizAlgebra.from_brackets(["e1", "e2"], {(0, 1): {1: 1}}),
        "A2+k": LeibnizAlgebra.from_brackets(["x", "y", "t"], {(0, 0): {1: 1}}),
    }


CORPUS = make_corpus()

LIE_CORPUS = {
    "abelian2": LieAlgebra.from_brackets(["a", "b"], {}),
    "r2": LieAlgebra.from_brackets(["a", "b"], {(0, 1): {1: 1}, (1, 0): {1: -1}}),
    "heis3": LieAlgebra.from_brackets(
        ["p", "q", "z"], {(0, 1): {2: 1}, (1, 0): {2: -1}}),
}

# sl2: [e,f] = h, [h,e] = 2e, [h,f] = -2f
SL2_BRACKETS = {(0, 1): {2: 1}, (1, 0): {2: -1}, (2, 0): {0: 2}, (0, 2): {0: -2},
                (2, 1): {1: -2}, (1, 2): {1: 2}}


def unimodular(rng: random.Random, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """Random SL_n(Z) pair (P, P^-1) built from elementary row operations,
    so the inverse is exact by construction."""
    p = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    pinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(4 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        # P <- E P  (row_i += c * row_j), so P^-1 <- P^-1 E^-1 (col_j -= c col_i)
        for k in range(n):
            p[i][k] += c * p[j][k]
        for k in range(n):
            pinv[k][j] -= c * pinv[k][i]
    return p, pinv


def conjugate(g: LeibnizAlgebra, p: list[list[int]], pinv: list[list[int]],
              names: list[str] | None = None) -> LeibnizAlgebra:
    """The same algebra in the basis f_i = sum_a p[a][i] e_a."""
    n = g.dim
    table = dense(g.structure, n, n)
    brackets = {}
    for i in range(n):
        for j in range(n):
            out = [Fraction(0)] * n
            for a in range(n):
                if not p[a][i]:
                    continue
                for b in range(n):
                    if not p[b][j]:
                        continue
                    coeff = Fraction(p[a][i] * p[b][j])
                    vec = table[a][b]
                    for k in range(n):
                        if vec[k]:
                            for l in range(n):
                                out[l] += coeff * vec[k] * pinv[l][k]
            entry = {l: c for l, c in enumerate(out) if c}
            if entry:
                brackets[(i, j)] = entry
    return LeibnizAlgebra.from_brackets(
        names or [f"f{i}" for i in range(n)], brackets)


def rescale(g: LeibnizAlgebra, scales) -> LeibnizAlgebra:
    """The same algebra in the basis f_i = scales[i] e_i."""
    n = g.dim
    p = [[Fraction(scales[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    pinv = [[1 / Fraction(scales[i]) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]
    return conjugate(g, p, pinv)


def rescaled_heis3() -> LeibnizAlgebra:
    """heis3 in the basis (2p, q/3, z): [f0,f1] = 2/3 f2, so its structure
    constants, adjoint and quotient modules all carry denominators."""
    return rescale(CORPUS["heis3"], (2, Fraction(1, 3), 1))


def random_algebra(rng: random.Random) -> LeibnizAlgebra:
    g = rng.choice([v for v in CORPUS.values() if v.dim <= 3])
    p, pinv = unimodular(rng, g.dim)
    out = conjugate(g, p, pinv)
    assert not check_leibniz(out)
    return out


def character_module(qdata) -> LieModule | None:
    """A 1-dim module over the maximal Lie quotient, given by any functional
    that kills the derived subalgebra; None when there is none."""
    h = qdata.quotient
    r = h.dim
    if r == 0:
        return None
    derived = set()
    table = dense(h.structure, r, r)
    for i in range(r):
        for j in range(r):
            vec = table[i][j]
            for k in range(r):
                if vec[k]:
                    derived.add(k)
    free = [k for k in range(r) if k not in derived]
    if not free:
        return None
    k0 = free[0]
    act = tensor3(r, 1, 1, {(k0, 0, 0): Fraction(1)})
    mod = LieModule(1, act)
    if check_lie_module(h, mod):
        return None
    return mod


def quotient_adjoint_module(qdata) -> LieModule | None:
    h = qdata.quotient
    r = h.dim
    if r == 0:
        return None
    mod = LieModule(r, h.structure)
    assert not check_lie_module(h, mod)
    return mod


def representations_for(g: LeibnizAlgebra) -> dict[str, Representation]:
    """Valid two-sided modules over g: trivial, adjoint, and lifted ones."""
    out = {
        "trivial1": trivial_representation(g, 1),
        "trivial2": trivial_representation(g, 2),
        "adjoint": adjoint_representation(g),
    }
    qdata = lie_quotient(g)
    adq = quotient_adjoint_module(qdata)
    if adq is not None:
        out["lift-adq"] = lie_module_lift(g, adq)
    ch = character_module(qdata)
    if ch is not None:
        out["lift-char"] = lie_module_lift(g, ch)
    for name, rep in out.items():
        assert not check_representation(g, rep), (name, g.basis_names)
    return out
