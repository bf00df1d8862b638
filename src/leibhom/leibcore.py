"""Leibniz algebras, their Lie quotients and representations.

Conventions used throughout the package:

* left Leibniz identity:   [[x,y],z] = [x,[y,z]] - [y,[x,z]]
* right Leibniz identity:  [x,[y,z]] = [[x,y],z] - [[x,z],y]

The pipeline works internally with the left convention; right-convention
input is converted through `opposite` at the boundary.  The two-sided
ideal spanned by squares [x,x] is computed from the polarized spanning
set [x,y] + [y,x], which is equivalent over a field of characteristic 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .exactla import (
    Matrix,
    ONE,
    Subspace,
    Vec,
    ZERO,
    add_into,
    add_vectors,
    is_zero_vector,
    quotient_projection,
    quotient_section,
)

Tensor3 = tuple[tuple[Vec, ...], ...]


class IllDefinedQuotient(Exception):
    """The bracket does not descend to the requested quotient."""


def tensor3(a: int, b: int, c: int, entries: Mapping[tuple[int, int, int], object]) -> Tensor3:
    data = [[[ZERO] * c for _ in range(b)] for _ in range(a)]
    for (i, j, k), v in entries.items():
        data[i][j][k] = Fraction(v)
    return tuple(tuple(tuple(row) for row in plane) for plane in data)


def tensor3_from_vectors(a: int, b: int, c: int, fn) -> Tensor3:
    """fn(i, j) -> length-c vector."""
    return tuple(tuple(tuple(Fraction(x) for x in fn(i, j)) for j in range(b)) for i in range(a))


def bilinear(t: Tensor3, u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
    """Apply the bilinear map with structure tensor t to (u, v)."""
    if not t:
        return ()
    c = len(t[0][0]) if t[0] else 0
    out = [ZERO] * c
    for i, ui in enumerate(u):
        if not ui:
            continue
        plane = t[i]
        for j, vj in enumerate(v):
            if not vj:
                continue
            w = plane[j]
            f = ui * vj
            for k, wk in enumerate(w):
                if wk:
                    out[k] += f * wk
    return tuple(out)


@dataclass(frozen=True)
class LeibnizAlgebra:
    dim: int
    basis_names: tuple[str, ...]
    structure: Tensor3
    convention: str = "left"

    def __post_init__(self):
        if len(self.basis_names) != self.dim:
            raise ValueError("basis_names length does not match dim")
        if self.convention not in ("left", "right"):
            raise ValueError(f"unknown convention {self.convention!r}")

    def bracket_basis(self, i: int, j: int) -> Vec:
        return self.structure[i][j]

    def bracket(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
        return bilinear(self.structure, u, v)

    @staticmethod
    def from_brackets(names: Sequence[str], brackets: Mapping[tuple[int, int], Mapping[int, object]],
                      convention: str = "left") -> "LeibnizAlgebra":
        n = len(names)
        entries = {}
        for (i, j), val in brackets.items():
            for k, c in val.items():
                entries[(i, j, k)] = c
        return LeibnizAlgebra(n, tuple(names), tensor3(n, n, n, entries), convention)


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    basis_names: tuple[str, ...]
    structure: Tensor3

    def bracket_basis(self, i: int, j: int) -> Vec:
        return self.structure[i][j]

    def bracket(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
        return bilinear(self.structure, u, v)

    def as_leibniz(self, convention: str = "left") -> LeibnizAlgebra:
        return LeibnizAlgebra(self.dim, self.basis_names, self.structure, convention)

    @staticmethod
    def from_brackets(names: Sequence[str], brackets: Mapping[tuple[int, int], Mapping[int, object]]) -> "LieAlgebra":
        g = LeibnizAlgebra.from_brackets(names, brackets)
        return LieAlgebra(g.dim, g.basis_names, g.structure)


def _int_tables(*tensors: Tensor3) -> list:
    """Each tensor as nested lists t[i][j] = [(k, c), ...] of its nonzero
    entries times D, the lcm of the denominators of all the tensors.  The
    axioms are homogeneous of degree 2 in the tensors, so every defect is
    scaled by D**2 and a zero stays exactly zero."""
    den = lcm(*(c.denominator for t in tensors for plane in t for vec in plane for c in vec))
    return [[[[(k, c.numerator * (den // c.denominator)) for k, c in enumerate(vec) if c]
              for vec in plane] for plane in t] for t in tensors]


def _transposed(t: list) -> list:
    return [list(col) for col in zip(*t)]


def _defect(*terms) -> dict:
    """The sparse sum of sign * c * row[l] over the (sign, pairs, row) terms
    and the (l, c) in pairs: one side of an identity minus the other."""
    acc: dict[int, int] = {}
    for sign, pairs, row in terms:
        for l, c in pairs:
            for k, c2 in row[l]:
                add_into(acc, k, sign * c * c2)
    return acc


def check_leibniz(g: LeibnizAlgebra) -> tuple[tuple[int, int, int], ...]:
    """All basis triples (i, j, k) violating the Leibniz identity of g's convention."""
    [t] = _int_tables(g.structure)
    tt = _transposed(t)
    bad = []
    n = g.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if g.convention == "left":
                    # [[i,j],k] - [i,[j,k]] + [j,[i,k]]
                    defect = _defect((1, t[i][j], tt[k]), (-1, t[j][k], t[i]), (1, t[i][k], t[j]))
                else:
                    # [i,[j,k]] - [[i,j],k] + [[i,k],j]
                    defect = _defect((1, t[j][k], t[i]), (-1, t[i][j], tt[k]), (1, t[i][k], tt[j]))
                if defect:
                    bad.append((i, j, k))
    return tuple(bad)


def check_lie(h: LieAlgebra) -> tuple[tuple, ...]:
    """Antisymmetry and Jacobi violations, tagged per family."""
    [t] = _int_tables(h.structure)
    bad = []
    n = h.dim
    for i in range(n):
        for j in range(n):
            if _defect((1, [(j, 1)], t[i]), (1, [(i, 1)], t[j])):  # [i,j] + [j,i]
                bad.append(("antisymmetry", i, j))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if _defect((1, t[j][k], t[i]), (1, t[k][i], t[j]), (1, t[i][j], t[k])):
                    bad.append(("jacobi", i, j, k))
    return tuple(bad)


def _unit(n: int, i: int) -> Vec:
    return tuple(ONE if t == i else ZERO for t in range(n))


def opposite(g: LeibnizAlgebra) -> LeibnizAlgebra:
    """Same space, arguments swapped; flips the convention."""
    opp = tuple(tuple(g.structure[j][i] for j in range(g.dim)) for i in range(g.dim))
    conv = "right" if g.convention == "left" else "left"
    return LeibnizAlgebra(g.dim, g.basis_names, opp, conv)


def kernel_ideal(g: LeibnizAlgebra) -> Subspace:
    """Span of squares [x,x], computed from the polarized generators [x,y]+[y,x]."""
    vecs = []
    for i in range(g.dim):
        for j in range(i, g.dim):
            v = add_vectors(g.bracket_basis(i, j), g.bracket_basis(j, i))
            if not is_zero_vector(v):
                vecs.append(v)
    return Subspace.from_spanning_columns(g.dim, vecs)


@dataclass(frozen=True)
class QuotientData:
    quotient: LieAlgebra
    projection: Matrix   # g -> g_Lie
    action_on_g: Tensor3  # g_Lie (x) g -> g, the left action through the projection
    ann: Subspace
    section: Matrix      # g_Lie -> g, canonical coordinate lift
    complement: tuple[int, ...]


def lie_quotient(g: LeibnizAlgebra) -> QuotientData:
    """Maximal Lie quotient g / span{[x,x]} together with its action on g.

    The quotient basis extends a column echelon basis of the square span
    to a basis of g and keeps the complementary coordinates.
    """
    if g.convention != "left":
        raise ValueError("lie_quotient expects the left convention; convert with opposite() first")
    ann = kernel_ideal(g)
    proj = quotient_projection(ann)
    sect = quotient_section(ann)
    comp = ann.complement
    r = len(comp)
    n = g.dim

    # the bracket must descend: ann has to be a two-sided ideal
    for t in range(ann.dim):
        col = ann.basis.column(t)
        for i in range(n):
            if not is_zero_vector(proj.apply(g.bracket(col, _unit(n, i)))):
                raise IllDefinedQuotient(f"[ann_{t}, e_{i}] leaves the square span")
            if not is_zero_vector(proj.apply(g.bracket(_unit(n, i), col))):
                raise IllDefinedQuotient(f"[e_{i}, ann_{t}] leaves the square span")

    structure = tensor3_from_vectors(
        r, r, r, lambda a, b: proj.apply(g.bracket_basis(comp[a], comp[b]))
    )
    names = tuple(f"{g.basis_names[c]}~" for c in comp)
    quotient = LieAlgebra(r, names, structure)

    action = tensor3_from_vectors(r, n, n, lambda a, j: g.bracket_basis(comp[a], j))

    # the action must factor the original left multiplication: pr(x).y == [x,y]
    for i in range(n):
        pi = proj.column(i)
        for j in range(n):
            got = bilinear(action, pi, _unit(n, j))
            if got != g.bracket_basis(i, j):
                raise IllDefinedQuotient(f"action through the projection disagrees with [e_{i}, e_{j}]")

    return QuotientData(quotient, proj, action, ann, sect, comp)


@dataclass(frozen=True)
class Representation:
    """Two-sided module over a Leibniz algebra: actions [x,m] and [m,x]."""

    dim: int
    basis_names: tuple[str, ...]
    left_action: Tensor3   # left_action[i][j] = [e_i, f_j], shape g.dim x dim x dim
    right_action: Tensor3  # right_action[j][i] = [f_j, e_i], shape dim x g.dim x dim

    def left(self, xvec: Sequence[Fraction], mvec: Sequence[Fraction]) -> Vec:
        return bilinear(self.left_action, xvec, mvec)

    def right(self, mvec: Sequence[Fraction], xvec: Sequence[Fraction]) -> Vec:
        return bilinear(self.right_action, mvec, xvec)


def trivial_representation(g: LeibnizAlgebra, dim: int = 1, names: Sequence[str] | None = None) -> Representation:
    if names is None:
        names = tuple(f"m{i}" for i in range(dim))
    return Representation(dim, tuple(names), tensor3(g.dim, dim, dim, {}), tensor3(dim, g.dim, dim, {}))


def adjoint_representation(g: LeibnizAlgebra) -> Representation:
    return Representation(g.dim, g.basis_names, g.structure, g.structure)


def check_representation(g: LeibnizAlgebra, m: Representation) -> tuple[tuple, ...]:
    """Violations of the three compatibility identities, tagged mxy/xmy/xym."""
    s, left, right = _int_tables(g.structure, m.left_action, m.right_action)
    left_t, right_t = _transposed(left), _transposed(right)
    bad = []
    for a in range(m.dim):
        for i in range(g.dim):
            for j in range(g.dim):
                # [[m,x],y] = [m,[x,y]] - [x,[m,y]]
                if _defect((1, right[a][i], right_t[j]), (-1, s[i][j], right[a]), (1, right[a][j], left[i])):
                    bad.append(("mxy", a, i, j))
                # [[x,m],y] = [x,[m,y]] - [m,[x,y]]
                if _defect((1, left[i][a], right_t[j]), (-1, right[a][j], left[i]), (1, s[i][j], right[a])):
                    bad.append(("xmy", a, i, j))
                # [[x,y],m] = [x,[y,m]] - [y,[x,m]]
                if _defect((1, s[i][j], left_t[a]), (-1, left[j][a], left[i]), (1, left[i][a], left[j])):
                    bad.append(("xym", i, j, a))
    return tuple(bad)


def opposite_representation(g: LeibnizAlgebra, m: Representation) -> Representation:
    """Module over opposite(g): the two actions trade places."""
    n, d = g.dim, m.dim
    left = tensor3_from_vectors(n, d, d, lambda i, j: m.right_action[j][i])
    right = tensor3_from_vectors(d, n, d, lambda j, i: m.left_action[i][j])
    return Representation(d, m.basis_names, left, right)


def symmetrization(m: Representation) -> tuple[Subspace, int, Matrix]:
    """(span of [x,m]+[m,x], dim of the quotient, projection matrix)."""
    d = m.dim
    vecs = []
    for i in range(len(m.left_action)):
        for j in range(d):
            v = add_vectors(m.left_action[i][j], m.right_action[j][i])
            if not is_zero_vector(v):
                vecs.append(v)
    anti = Subspace.from_spanning_columns(d, vecs)
    return anti, d - anti.dim, quotient_projection(anti)


@dataclass(frozen=True)
class LieModule:
    """Left module over a Lie algebra: action[a][j] = e_a . f_j."""

    dim: int
    action: Tensor3

    def act(self, xvec: Sequence[Fraction], mvec: Sequence[Fraction]) -> Vec:
        return bilinear(self.action, xvec, mvec)


def check_lie_module(h: LieAlgebra, mod: LieModule) -> tuple[tuple, ...]:
    """Triples (i, j, a) where [x,y].m = x.(y.m) - y.(x.m) fails."""
    s, act = _int_tables(h.structure, mod.action)
    act_t = _transposed(act)
    bad = []
    for i in range(h.dim):
        for j in range(h.dim):
            for a in range(mod.dim):
                if _defect((1, s[i][j], act_t[a]), (-1, act[j][a], act[i]), (1, act[i][a], act[j])):
                    bad.append((i, j, a))
    return tuple(bad)


def adjoint_lie_module(h: LieAlgebra) -> LieModule:
    return LieModule(h.dim, h.structure)


def lie_module_lift(g: LeibnizAlgebra, qdata: QuotientData, mod: LieModule) -> Representation:
    """Representation of g induced by a module over its Lie quotient.

    [x, m] = pr(x).m and [m, x] = -pr(x).m, which satisfies all three
    compatibility identities.
    """
    n, d = g.dim, mod.dim
    left = tensor3_from_vectors(n, d, d, lambda i, j: mod.act(qdata.projection.column(i), _unit(d, j)))
    right = tensor3_from_vectors(d, n, d, lambda j, i: tuple(-x for x in mod.act(qdata.projection.column(i), _unit(d, j))))
    names = tuple(f"m{i}" for i in range(d))
    return Representation(d, names, left, right)
