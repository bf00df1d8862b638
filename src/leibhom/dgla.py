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

Brackets and module actions are tables (see leibcore): brackets[(p, q)]
is the Matrix of L_p x L_q -> L_{p+q}, column i*dim(q) + j holding
[e_i, e_j], so every axiom below is a matrix identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactla import (
    Matrix,
    Subspace,
    _kron,
    _lincomb,
    _matrix,
    _swap,
    kernel_basis,
    quotient_section,
    solve,
)
from .leibcore import (
    LeibnizAlgebra,
    LieAlgebra,
    QuotientData,
    Representation,
    _polarized,
    _violations,
    check_representation,
    lie_quotient,
    symmetrization,
)


class NotInCategory(Exception):
    """The DGLA fails the surjectivity/kernel conditions needed for the counit."""


class IllDefinedAction(Exception):
    """A would-be module action does not preserve the required subquotients."""


@dataclass
class DGLieAlgebra:
    name: str
    degree_dims: dict[int, int]
    brackets: dict[tuple[int, int], Matrix]  # (p, q): the table of L_p x L_q -> L_{p+q}
    differentials: dict[int, Matrix]
    labels: dict[int, tuple[str, ...]] = field(default_factory=dict)

    def dim(self, p: int) -> int:
        return self.degree_dims.get(p, 0)

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(p for p, d in self.degree_dims.items() if d > 0))

    def bracket(self, p: int, q: int) -> Matrix:
        """The table of L_p x L_q -> L_{p+q}, zero where none is stored."""
        t = self.brackets.get((p, q))
        return Matrix.zeros(self.dim(p + q), self.dim(p) * self.dim(q)) if t is None else t

    def differential(self, p: int) -> Matrix:
        m = self.differentials.get(p)
        if m is None:
            m = Matrix.zeros(self.dim(p - 1), self.dim(p))
        return m


def _coords_in(sub: Subspace, m: Matrix, exc: type[Exception], msg) -> Matrix:
    """Coordinates in sub of the columns of m; raises exc(msg(c)) for the
    first column c outside sub."""
    coords = sub.column_coords(m)
    if coords is None:
        cols = m.transpose().int_rows
        raise exc(msg(next(c for c, col in enumerate(cols)
                           if sub.column_coords(_matrix(1, m.rows, (col,)).transpose()) is None)))
    return coords


def check_dgla(L: DGLieAlgebra) -> tuple[tuple, ...]:
    """Violations of the four axioms, as tagged tuples; empty means valid."""
    bad = []
    degs = L.degrees()

    for p in degs:
        for q in degs:
            if L.dim(p + q) == 0 and (p, q) not in L.brackets and (q, p) not in L.brackets:
                continue
            tp, tq = L.dim(p), L.dim(q)
            # [x,y] - (-1)^{pq+1} [y,x]
            defect = _lincomb((1, L.bracket(p, q)), ((-1) ** (p * q), L.bracket(q, p) @ _swap(tp, tq)))
            bad += [("antisymmetry", p, q, i, j) for i, j in _violations(defect, tp, tq)]

    for p in degs:
        for q in degs:
            for r in degs:
                if L.dim(p + q + r) == 0:
                    continue
                tp, tq, tr = L.dim(p), L.dim(q), L.dim(r)
                # [x,[y,z]], [y,[z,x]] and [z,[x,y]] on L_p (x) L_q (x) L_r
                xyz = L.bracket(p, q + r) @ _kron(Matrix.identity(tp), L.bracket(q, r))
                yzx = L.bracket(q, r + p) @ _kron(Matrix.identity(tq), L.bracket(r, p)) @ _swap(tp, tq * tr)
                zxy = L.bracket(r, p + q) @ _kron(Matrix.identity(tr), L.bracket(p, q)) @ _swap(tp * tq, tr)
                defect = _lincomb(((-1) ** (p * r), xyz), ((-1) ** (q * p), yzx), ((-1) ** (r * q), zxy))
                bad += [("jacobi", p, q, r, i, j, k) for i, j, k in _violations(defect, tp, tq, tr)]

    for p in degs:
        for q in degs:
            if L.dim(p + q) == 0 or L.dim(p + q - 1) == 0:
                continue
            tp, tq = L.dim(p), L.dim(q)
            # d[x,y] - [dx,y] - (-1)^p [x,dy]
            defect = _lincomb(
                (1, L.differential(p + q) @ L.bracket(p, q)),
                (-1, L.bracket(p - 1, q) @ _kron(L.differential(p), Matrix.identity(tq))),
                (-((-1) ** p), L.bracket(p, q - 1) @ _kron(Matrix.identity(tp), L.differential(q))))
            bad += [("leibniz_rule", p, q, i, j) for i, j in _violations(defect, tp, tq)]

    for p in degs:
        if L.dim(p - 1) and L.dim(p - 2):
            comp = L.differential(p - 1) @ L.differential(p)
            if not comp.is_zero():
                bad.append(("d_squared", p))

    return tuple(bad)


def cone(h: LieAlgebra) -> DGLieAlgebra:
    """Two-step DGLA id: h -> h whose derived bracket recovers h itself."""
    n, t = h.dim, h.structure
    return DGLieAlgebra(
        name="cone",
        degree_dims={0: n, 1: n},
        brackets={(0, 0): t, (0, 1): t, (1, 0): _lincomb((-1, t @ _swap(n, n)))},
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
    names = L.labels.get(1) or tuple(f"x{i}" for i in range(n))
    g = LeibnizAlgebra(n, tuple(names), L.bracket(0, 1) @ _kron(d1, Matrix.identity(n)), "left")

    surjective = kernel_basis(d1.transpose()).dim == 0
    # d2 [e_i, e_j] for i <= j
    squares = (L.differential(2) @ L.bracket(1, 1)).transpose().int_rows
    image = Subspace.from_sparse_columns(n, [col for c, (_, col) in enumerate(squares)
                                             if c // n <= c % n])
    return g, CategoryReport(surjective, image == kernel_basis(d1))


def minimal_envelope(g: LeibnizAlgebra, qdata: QuotientData | None = None) -> DGLieAlgebra:
    """Three-step DGLA  ann -> g -> g_Lie  with derived bracket equal to g's.

    Degree 0 is the maximal Lie quotient, degree 2 the span of squares,
    d1 the projection and d2 the inclusion.  The degree-(1,1) bracket is
    the symmetrized original bracket read in square-span coordinates, so
    [x,x] = 2*[x,x]^ there.
    """
    if qdata is None:
        qdata = lie_quotient(g)
    n, r = g.dim, qdata.quotient.dim
    ann = qdata.ann
    s = ann.dim
    b01 = qdata.action_on_g
    b11 = _coords_in(ann, _polarized(g), IllDefinedAction,
                     lambda c: f"symmetrized bracket of e_{c // n}, e_{c % n} left the square span")
    b02 = _coords_in(ann, b01 @ _kron(Matrix.identity(r), ann.basis), IllDefinedAction,
                     lambda c: f"degree-0 action of basis vector {c // s} left the square span")

    hat_names = tuple(f"{g.basis_names[p]}^" for p in ann.pivots)
    return DGLieAlgebra(
        name="envelope",
        degree_dims={0: r, 1: n, 2: s},
        brackets={(0, 0): qdata.quotient.structure, (0, 1): b01,
                  (1, 0): _lincomb((-1, b01 @ _swap(n, r))), (1, 1): b11,
                  (0, 2): b02, (2, 0): _lincomb((-1, b02 @ _swap(s, r)))},
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
            # f[x,y] - [fx,fy]
            defect = _lincomb((1, f.component(p + q) @ src.bracket(p, q)),
                              (-1, tgt.bracket(p, q) @ _kron(f.component(p), f.component(q))))
            bad += [("bracket", p, q, i, j) for i, j in _violations(defect, np_, nq)]
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
    n, m0 = L.dim(1), L.dim(0)

    d1 = L.differential(1)
    preimages = []
    for a in range(m0):
        pre = solve(d1, [int(t == a) for t in range(m0)])
        if pre is None:
            raise NotInCategory(f"degree-0 basis vector {a} has no d1 preimage")
        preimages.append([(j, x) for j, x in enumerate(pre) if x])
    f0 = qdata.projection @ Matrix(m0, n, preimages).transpose()
    f2 = _coords_in(qdata.ann, L.differential(2), NotInCategory,
                    lambda j: f"d2 of degree-2 basis vector {j} is not in the square span")

    f = DGLAMorphism(L, M, {0: f0, 1: Matrix.identity(n), 2: f2})
    bad = check_dgla_morphism(f, max_degree=2)
    if bad:
        raise NotInCategory(f"counit is not a morphism: {bad[:3]}")
    return f, M


@dataclass
class DGModule:
    """Graded module over a DGLA, differential of degree -1, possibly in
    negative degrees.  actions[(p, q)] is the table of L_p x M_q -> M_{p+q}."""

    algebra: DGLieAlgebra
    degree_dims: dict[int, int]
    actions: dict[tuple[int, int], Matrix]
    differentials: dict[int, Matrix]
    labels: dict[int, tuple[str, ...]] = field(default_factory=dict)

    def dim(self, q: int) -> int:
        return self.degree_dims.get(q, 0)

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(q for q, d in self.degree_dims.items() if d > 0))

    def action(self, p: int, q: int) -> Matrix:
        """The table of L_p x M_q -> M_{p+q}, zero where none is stored."""
        t = self.actions.get((p, q))
        return Matrix.zeros(self.dim(p + q), self.algebra.dim(p) * self.dim(q)) if t is None else t

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
                # [x,y].m - x.(y.m) + (-1)^{pq} y.(x.m) on L_p (x) L_q (x) M_s
                y_xm = mod.action(q, p + s) @ _kron(Matrix.identity(nq), mod.action(p, s))
                defect = _lincomb(
                    (1, mod.action(p + q, s) @ _kron(L.bracket(p, q), Matrix.identity(ns))),
                    (-1, mod.action(p, q + s) @ _kron(Matrix.identity(np_), mod.action(q, s))),
                    ((-1) ** (p * q), y_xm @ _kron(_swap(np_, nq), Matrix.identity(ns))))
                bad += [("module_jacobi", p, q, s, i, j, a)
                        for i, j, a in _violations(defect, np_, nq, ns)]

    for p in adegs:
        for s in mdegs:
            if mod.dim(p + s) == 0 or mod.dim(p + s - 1) == 0:
                continue
            np_, ns = L.dim(p), mod.dim(s)
            # d(x.m) - (dx).m - (-1)^p x.(dm)
            defect = _lincomb(
                (1, mod.differential(p + s) @ mod.action(p, s)),
                (-1, mod.action(p - 1, s) @ _kron(L.differential(p), Matrix.identity(ns))),
                (-((-1) ** p), mod.action(p, s - 1) @ _kron(Matrix.identity(np_), mod.differential(s))))
            bad += [("module_leibniz", p, s, i, a) for i, a in _violations(defect, np_, ns)]

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
    r, s = qdata.quotient.dim, qdata.ann.dim
    anti, u_dim, qmat = symmetrization(rep)
    t = anti.dim
    lift = quotient_section(anti)
    right = rep.right_action

    # the degree-0 letters act through the coordinate section
    a00 = rep.left_action @ _kron(qdata.section, Matrix.identity(d))
    a01 = _coords_in(anti, a00 @ _kron(Matrix.identity(r), anti.basis), IllDefinedAction,
                     lambda c: f"left action of degree-0 vector {c // t} leaves the symmetrized span")
    a0m1 = qmat @ a00 @ _kron(Matrix.identity(r), lift)

    # [x, m~] for m~ in the quotient: minus the right action of a lift
    a1m1 = _lincomb((-1, right @ _kron(lift, Matrix.identity(n)) @ _swap(n, u_dim)))
    kills = _violations(right @ _kron(anti.basis, Matrix.identity(n)), t, n)
    if kills:
        raise IllDefinedAction(
            f"right action of e_{min(i for _, i in kills)} does not kill the symmetrized span")

    a10 = _coords_in(anti, _lincomb((1, rep.left_action), (1, right @ _swap(n, d))),
                     IllDefinedAction, lambda c: "symmetrized action vector left its own span")
    a2m1 = _coords_in(
        anti, _lincomb((-1, right @ _kron(lift, qdata.ann.basis) @ _swap(s, u_dim))),
        IllDefinedAction,
        lambda c: f"right action of square-span vector {c // u_dim} does not land in the symmetrized span")

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
