"""Differential graded Lie algebras and the functors linking them to Leibniz algebras.

A DGLA here is concentrated in non-negative degrees, with differential of
degree -1 and a graded bracket satisfying

    [x,y] = (-1)^{|x||y|+1} [y,x]
    (-1)^{|x||z|}[x,[y,z]] + (-1)^{|y||x|}[y,[z,x]] + (-1)^{|z||y|}[z,[x,y]] = 0
    d[x,y] = [dx,y] + (-1)^{|x|}[x,dy]

The derived bracket [x,y] := [d x, y] makes the degree-1 part a left
Leibniz algebra (`leib`).  `cone` and `minimal_envelope` build the two
standard objects that realize a given Lie or Leibniz algebra this way,
and `minimal_counit` maps any suitable DGLA onto the minimal model of
its own degree-1 part.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .exactla import (
    Matrix,
    Subspace,
    Vec,
    add_vectors,
    is_zero_vector,
    kernel_basis,
    quotient_section,
    scale_vector,
    solve,
    sub_vectors,
    zero_vector,
)
from .leibcore import (
    LeibnizAlgebra,
    LieAlgebra,
    QuotientData,
    Representation,
    Tensor3,
    _unit,
    bilinear,
    check_representation,
    lie_quotient,
    symmetrization,
    tensor3_from_vectors,
)


class NotInCategory(Exception):
    """The DGLA fails the surjectivity/kernel conditions needed for the counit."""


class IllDefinedAction(Exception):
    """A would-be module action does not preserve the required subquotients."""


@dataclass
class DGLieAlgebra:
    name: str
    degree_dims: dict[int, int]
    brackets: dict[tuple[int, int], Tensor3]
    differentials: dict[int, Matrix]
    labels: dict[int, tuple[str, ...]] = field(default_factory=dict)

    def dim(self, p: int) -> int:
        return self.degree_dims.get(p, 0)

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(p for p, d in self.degree_dims.items() if d > 0))

    def bracket_vec(self, p: int, q: int, u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
        t = self.brackets.get((p, q))
        if t is None:
            return zero_vector(self.dim(p + q))
        return bilinear(t, u, v)

    def differential(self, p: int) -> Matrix:
        m = self.differentials.get(p)
        if m is None:
            m = Matrix.zeros(self.dim(p - 1), self.dim(p))
        return m

    def label(self, p: int, i: int) -> str:
        names = self.labels.get(p)
        if names is not None:
            return names[i]
        return f"e[{p}][{i}]"


def _coords_in(sub: Subspace, v, exc: type[Exception], msg: str) -> Vec:
    c = sub.coords(v)
    if c is None:
        raise exc(msg)
    return c


def check_dgla(L: DGLieAlgebra) -> tuple[tuple, ...]:
    """Violations of the four axioms, as tagged tuples; empty means valid."""
    bad = []
    degs = L.degrees()

    for p in degs:
        for q in degs:
            tp, tq = L.dim(p), L.dim(q)
            if L.dim(p + q) == 0 and (p, q) not in L.brackets and (q, p) not in L.brackets:
                continue
            sign = Fraction(-1) ** (p * q + 1)
            for i in range(tp):
                up = _unit(tp, i)
                for j in range(tq):
                    lhs = L.bracket_vec(p, q, up, _unit(tq, j))
                    rhs = scale_vector(sign, L.bracket_vec(q, p, _unit(tq, j), up))
                    if lhs != rhs:
                        bad.append(("antisymmetry", p, q, i, j))

    for p in degs:
        for q in degs:
            for r in degs:
                tp, tq, tr = L.dim(p), L.dim(q), L.dim(r)
                if L.dim(p + q + r) == 0:
                    continue
                for i in range(tp):
                    x = _unit(tp, i)
                    for j in range(tq):
                        y = _unit(tq, j)
                        for k in range(tr):
                            z = _unit(tr, k)
                            s = scale_vector(Fraction(-1) ** (p * r),
                                             L.bracket_vec(p, q + r, x, L.bracket_vec(q, r, y, z)))
                            s = add_vectors(s, scale_vector(Fraction(-1) ** (q * p),
                                            L.bracket_vec(q, r + p, y, L.bracket_vec(r, p, z, x))))
                            s = add_vectors(s, scale_vector(Fraction(-1) ** (r * q),
                                            L.bracket_vec(r, p + q, z, L.bracket_vec(p, q, x, y))))
                            if not is_zero_vector(s):
                                bad.append(("jacobi", p, q, r, i, j, k))

    for p in degs:
        for q in degs:
            tp, tq = L.dim(p), L.dim(q)
            if L.dim(p + q) == 0 or L.dim(p + q - 1) == 0:
                continue
            d_pq = L.differential(p + q)
            for i in range(tp):
                x = _unit(tp, i)
                dx = L.differential(p).column(i) if L.dim(p - 1) else zero_vector(0)
                for j in range(tq):
                    y = _unit(tq, j)
                    dy = L.differential(q).column(j) if L.dim(q - 1) else zero_vector(0)
                    lhs = d_pq.apply(L.bracket_vec(p, q, x, y))
                    rhs = L.bracket_vec(p - 1, q, dx, y) if L.dim(p - 1) else zero_vector(L.dim(p + q - 1))
                    term = L.bracket_vec(p, q - 1, x, dy) if L.dim(q - 1) else zero_vector(L.dim(p + q - 1))
                    rhs = add_vectors(rhs, scale_vector(Fraction(-1) ** p, term))
                    if lhs != rhs:
                        bad.append(("leibniz_rule", p, q, i, j))

    for p in degs:
        if L.dim(p - 1) and L.dim(p - 2):
            comp = L.differential(p - 1) @ L.differential(p)
            if not comp.is_zero():
                bad.append(("d_squared", p))

    return tuple(bad)


def cone(h: LieAlgebra, name: str | None = None) -> DGLieAlgebra:
    """Two-step DGLA id: h -> h whose derived bracket recovers h itself."""
    n = h.dim
    b01 = h.structure
    b10 = tensor3_from_vectors(n, n, n, lambda i, j: tuple(-x for x in h.structure[j][i]))
    return DGLieAlgebra(
        name=name or "cone",
        degree_dims={0: n, 1: n},
        brackets={(0, 0): h.structure, (0, 1): b01, (1, 0): b10},
        differentials={1: Matrix.identity(n)},
        labels={0: h.basis_names, 1: tuple(f"{s}^" for s in h.basis_names)},
    )


@dataclass(frozen=True)
class CategoryReport:
    surjective: bool
    kernel_matches: bool

    @property
    def member(self) -> bool:
        return self.surjective and self.kernel_matches


def leib(L: DGLieAlgebra) -> tuple[LeibnizAlgebra, CategoryReport]:
    """Degree-1 part with the derived bracket [x,y] = [dx,y], plus the
    membership report (d1 surjective, ker d1 spanned by d2 of degree-1 squares)."""
    n = L.dim(1)
    d1 = L.differential(1)
    structure = tensor3_from_vectors(
        n, n, n, lambda i, j: L.bracket_vec(0, 1, d1.column(i), _unit(n, j))
    )
    names = L.labels.get(1) or tuple(f"x{i}" for i in range(n))
    g = LeibnizAlgebra(n, tuple(names), structure, "left")

    surjective = kernel_basis(d1.transpose()).dim == 0
    ker = kernel_basis(d1)
    d2 = L.differential(2)
    spanning = []
    for i in range(n):
        for j in range(i, n):
            w = L.bracket_vec(1, 1, _unit(n, i), _unit(n, j))
            if len(w) and not is_zero_vector(w):
                spanning.append(d2.apply(w))
    image = Subspace.from_spanning_columns(n, spanning)
    kernel_matches = image == ker
    return g, CategoryReport(surjective, kernel_matches)


def minimal_envelope(g: LeibnizAlgebra, qdata: QuotientData | None = None,
                     name: str | None = None) -> DGLieAlgebra:
    """Three-step DGLA  ann -> g -> g_Lie  with derived bracket equal to g's.

    Degree 0 is the maximal Lie quotient, degree 2 the span of squares,
    d1 the projection and d2 the inclusion.  The degree-(1,1) bracket is
    the symmetrized original bracket read in square-span coordinates, so
    [x,x] = 2*[x,x]^ there.
    """
    if qdata is None:
        qdata = lie_quotient(g)
    n = g.dim
    r = qdata.quotient.dim
    ann = qdata.ann
    s = ann.dim

    b00 = qdata.quotient.structure
    b01 = qdata.action_on_g
    b10 = tensor3_from_vectors(n, r, n, lambda i, a: tuple(-x for x in b01[a][i]))
    b11 = tensor3_from_vectors(
        n, n, s,
        lambda i, j: _coords_in(
            ann, add_vectors(g.bracket_basis(i, j), g.bracket_basis(j, i)),
            IllDefinedAction, f"symmetrized bracket of e_{i}, e_{j} left the square span"),
    )
    b02 = tensor3_from_vectors(
        r, s, s,
        lambda a, j: _coords_in(
            ann, bilinear(qdata.action_on_g, _unit(r, a), ann.basis.column(j)),
            IllDefinedAction, f"degree-0 action of basis vector {a} left the square span"),
    )
    b20 = tensor3_from_vectors(s, r, s, lambda j, a: tuple(-x for x in b02[a][j]))

    hat_names = tuple(f"{g.basis_names[p]}^" for p in ann.pivots)
    return DGLieAlgebra(
        name=name or "envelope",
        degree_dims={0: r, 1: n, 2: s},
        brackets={(0, 0): b00, (0, 1): b01, (1, 0): b10,
                  (1, 1): b11, (0, 2): b02, (2, 0): b20},
        differentials={1: qdata.projection, 2: ann.basis},
        labels={0: qdata.quotient.basis_names, 1: g.basis_names, 2: hat_names},
    )


@dataclass
class DGLAMorphism:
    source: DGLieAlgebra
    target: DGLieAlgebra
    components: dict[int, Matrix]

    def component(self, p: int) -> Matrix:
        m = self.components.get(p)
        if m is None:
            m = Matrix.zeros(self.target.dim(p), self.source.dim(p))
        return m


def check_dgla_morphism(f: DGLAMorphism, max_degree: int | None = None) -> tuple[tuple, ...]:
    """Chain-map and bracket-compatibility violations up to max_degree."""
    bad = []
    src, tgt = f.source, f.target
    degs = sorted(set(src.degrees()) | set(tgt.degrees()))
    if max_degree is not None:
        degs = [p for p in degs if p <= max_degree]

    for p in degs:
        if src.dim(p) == 0:
            continue
        lhs = f.component(p - 1) @ src.differential(p)
        rhs = tgt.differential(p) @ f.component(p)
        if lhs != rhs:
            bad.append(("chain_map", p))

    for p in degs:
        for q in degs:
            if max_degree is not None and p + q > max_degree:
                continue
            np_, nq = src.dim(p), src.dim(q)
            if np_ == 0 or nq == 0:
                continue
            fp, fq, fpq = f.component(p), f.component(q), f.component(p + q)
            for i in range(np_):
                for j in range(nq):
                    lhs = fpq.apply(src.bracket_vec(p, q, _unit(np_, i), _unit(nq, j)))
                    rhs = tgt.bracket_vec(p, q, fp.column(i), fq.column(j))
                    if lhs != rhs:
                        bad.append(("bracket", p, q, i, j))
    return tuple(bad)


def minimal_counit(L: DGLieAlgebra) -> tuple[DGLAMorphism, DGLieAlgebra]:
    """Morphism from L onto the minimal envelope of its derived-bracket algebra.

    Identity in degree 1; degree 0 is solved from the chain-map equation
    using surjectivity of d1; degree 2 reads d2 in square-span coordinates.
    Raises NotInCategory when the membership conditions fail.
    """
    g, report = leib(L)
    if not report.member:
        raise NotInCategory(
            f"surjective={report.surjective} kernel_matches={report.kernel_matches}")
    qdata = lie_quotient(g)
    M = minimal_envelope(g, qdata)
    n = L.dim(1)

    d1 = L.differential(1)
    m0 = L.dim(0)
    cols0 = []
    for a in range(m0):
        pre = solve(d1, _unit(m0, a))
        if pre is None:
            raise NotInCategory(f"degree-0 basis vector {a} has no d1 preimage")
        cols0.append(qdata.projection.apply(pre))
    f0 = Matrix.from_columns(qdata.quotient.dim, cols0)

    m2 = L.dim(2)
    d2 = L.differential(2)
    cols2 = [
        _coords_in(qdata.ann, d2.column(j), NotInCategory,
                   f"d2 of degree-2 basis vector {j} is not in the square span")
        for j in range(m2)
    ]
    f2 = Matrix.from_columns(qdata.ann.dim, cols2)

    f = DGLAMorphism(L, M, {0: f0, 1: Matrix.identity(n), 2: f2})
    bad = check_dgla_morphism(f, max_degree=2)
    if bad:
        raise NotInCategory(f"counit is not a morphism: {bad[:3]}")
    return f, M


@dataclass
class DGModule:
    """Graded module over a DGLA, differential of degree -1, possibly in
    negative degrees.  actions[(p, q)] maps L_p (x) M_q -> M_{p+q}."""

    algebra: DGLieAlgebra
    degree_dims: dict[int, int]
    actions: dict[tuple[int, int], Tensor3]
    differentials: dict[int, Matrix]
    labels: dict[int, tuple[str, ...]] = field(default_factory=dict)

    def dim(self, q: int) -> int:
        return self.degree_dims.get(q, 0)

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(q for q, d in self.degree_dims.items() if d > 0))

    def action_vec(self, p: int, q: int, x: Sequence[Fraction], m: Sequence[Fraction]) -> Vec:
        t = self.actions.get((p, q))
        if t is None:
            return zero_vector(self.dim(p + q))
        return bilinear(t, x, m)

    def differential(self, q: int) -> Matrix:
        m = self.differentials.get(q)
        if m is None:
            m = Matrix.zeros(self.dim(q - 1), self.dim(q))
        return m


def check_dg_module(mod: DGModule) -> tuple[tuple, ...]:
    """Violations of the module identities over the underlying DGLA."""
    bad = []
    L = mod.algebra
    adegs = L.degrees()
    mdegs = mod.degrees()

    for p in adegs:
        for q in adegs:
            for s in mdegs:
                if mod.dim(p + q + s) == 0:
                    continue
                np_, nq, ns = L.dim(p), L.dim(q), mod.dim(s)
                for i in range(np_):
                    x = _unit(np_, i)
                    for j in range(nq):
                        y = _unit(nq, j)
                        for a in range(ns):
                            m = _unit(ns, a)
                            lhs = mod.action_vec(p + q, s, L.bracket_vec(p, q, x, y), m)
                            rhs = mod.action_vec(p, q + s, x, mod.action_vec(q, s, y, m))
                            rhs = sub_vectors(rhs, scale_vector(
                                Fraction(-1) ** (p * q),
                                mod.action_vec(q, p + s, y, mod.action_vec(p, s, x, m))))
                            if lhs != rhs:
                                bad.append(("module_jacobi", p, q, s, i, j, a))

    for p in adegs:
        for s in mdegs:
            if mod.dim(p + s) == 0 or mod.dim(p + s - 1) == 0:
                continue
            np_, ns = L.dim(p), mod.dim(s)
            d_out = mod.differential(p + s)
            for i in range(np_):
                x = _unit(np_, i)
                dx = L.differential(p).column(i) if L.dim(p - 1) else zero_vector(0)
                for a in range(ns):
                    m = _unit(ns, a)
                    dm = mod.differential(s).column(a) if mod.dim(s - 1) else zero_vector(0)
                    lhs = d_out.apply(mod.action_vec(p, s, x, m))
                    rhs = mod.action_vec(p - 1, s, dx, m) if L.dim(p - 1) else zero_vector(mod.dim(p + s - 1))
                    term = mod.action_vec(p, s - 1, x, dm) if mod.dim(s - 1) else zero_vector(mod.dim(p + s - 1))
                    rhs = add_vectors(rhs, scale_vector(Fraction(-1) ** p, term))
                    if lhs != rhs:
                        bad.append(("module_leibniz", p, s, i, a))

    for q in mdegs:
        if mod.dim(q - 1) and mod.dim(q - 2):
            if not (mod.differential(q - 1) @ mod.differential(q)).is_zero():
                bad.append(("d_squared", q))

    return tuple(bad)


def as_module(L: DGLieAlgebra) -> DGModule:
    """L acting on itself by its own bracket."""
    return DGModule(L, dict(L.degree_dims), dict(L.brackets), dict(L.differentials), dict(L.labels))


def minimal_module(g: LeibnizAlgebra, rep: Representation,
                   qdata: QuotientData | None = None,
                   envelope: DGLieAlgebra | None = None) -> DGModule:
    """Three-step DG module  anti -> m -> m_symm  over the minimal envelope.

    Degree 1 is the span of the symmetrized action vectors [x,m]+[m,x],
    degree -1 the quotient by it.  Raises IllDefinedAction when rep fails
    the two-sided module identities, or when an action fails to preserve
    the span or descend to the quotient.
    """
    bad = check_representation(g, rep)
    if bad:
        raise IllDefinedAction(f"not a two-sided module: {bad[:3]}")
    if qdata is None:
        qdata = lie_quotient(g)
    if envelope is None:
        envelope = minimal_envelope(g, qdata)
    n, d = g.dim, rep.dim
    r = qdata.quotient.dim
    anti, u_dim, qmat = symmetrization(rep)
    t = anti.dim
    lift = quotient_section(anti)

    def lift_left(a_idx: int, mvec: Vec) -> Vec:
        # action of a degree-0 basis vector through the coordinate section
        return rep.left(qdata.section.column(a_idx), mvec)

    for a in range(r):
        for i in range(t):
            v = lift_left(a, anti.basis.column(i))
            if not anti.contains(v):
                raise IllDefinedAction(f"left action of degree-0 vector {a} leaves the symmetrized span")

    a00 = tensor3_from_vectors(r, d, d, lambda a, j: lift_left(a, _unit(d, j)))
    a01 = tensor3_from_vectors(r, t, t, lambda a, i: anti.coords(lift_left(a, anti.basis.column(i))))
    a0m1 = tensor3_from_vectors(r, u_dim, u_dim,
                                lambda a, c: qmat.apply(lift_left(a, lift.column(c))))

    # [x, m~] for m~ in the quotient: minus the right action of a lift
    a1m1 = tensor3_from_vectors(
        n, u_dim, d, lambda i, c: tuple(-x for x in rep.right(lift.column(c), _unit(n, i))))
    for i in range(n):
        for j in range(t):
            if not is_zero_vector(rep.right(anti.basis.column(j), _unit(n, i))):
                raise IllDefinedAction(
                    f"right action of e_{i} does not kill the symmetrized span")

    a10 = tensor3_from_vectors(
        n, d, t,
        lambda i, j: _coords_in(
            anti,
            add_vectors(rep.left(_unit(n, i), _unit(d, j)), rep.right(_unit(d, j), _unit(n, i))),
            IllDefinedAction, "symmetrized action vector left its own span"))

    s = qdata.ann.dim
    a2m1 = tensor3_from_vectors(
        s, u_dim, t,
        lambda j, c: _coords_in(
            anti,
            tuple(-x for x in rep.right(lift.column(c), qdata.ann.basis.column(j))),
            IllDefinedAction,
            f"right action of square-span vector {j} does not land in the symmetrized span"))

    anti_names = tuple(f"{rep.basis_names[p]}^" for p in anti.pivots)
    symm_names = tuple(f"{rep.basis_names[c]}~" for c in anti.complement)
    return DGModule(
        algebra=envelope,
        degree_dims={1: t, 0: d, -1: u_dim},
        actions={(0, 0): a00, (0, 1): a01, (0, -1): a0m1,
                 (1, -1): a1m1, (1, 0): a10, (2, -1): a2m1},
        differentials={1: anti.basis, 0: qmat},
        labels={1: anti_names, 0: rep.basis_names, -1: symm_names},
    )
