"""The library side that no command runs: the DGLA category and the
classical Chevalley-Eilenberg complexes.

Commands reach one functor from Leibniz algebras to DGLAs, the minimal
envelope (dgla).  What the paper's argument needs besides it lives here:

* `cone`, the two-step DGLA id: h -> h of a Lie algebra,
* `leib`, the degree-1 part of a DGLA under the derived bracket
  [x,y] := [d x, y], with its membership report,
* `minimal_counit`, the morphism from a suitable DGLA onto the minimal
  envelope of its own degree-1 part,
* DG modules and `minimal_module`, the module over the minimal envelope
  that a two-sided module induces,
* the axiom and morphism checkers of all of these,
* `classical_ce` and `classical_ce_cochain`, the exterior-power complexes
  of a Lie algebra, an entry point and an oracle (on a Lie algebra they
  equal the enveloping-algebra complexes of homology).

No module that `import leibhom.cli` loads imports this one; the package
resolves its names on first access.  actions[(p, q)] is the table of
L_p x M_q -> M_{p+q}, laid out like a bracket table.
"""

from __future__ import annotations

import itertools
from math import lcm

from .dgla import (
    DGLieAlgebra,
    IllDefinedAction,
    NotInCategory,
    _coords_in,
    _Graded,
    minimal_envelope,
)
from .exactla import (
    Matrix,
    Subspace,
    _Frozen,
    _kron,
    _lincomb,
    _Record,
    _swap,
    kernel_basis,
    quotient_section,
    solve,
)
from .homology import ChainComplex, Coefficients, _dual, _lie_action, _monomial_complex
from .leibcore import (
    LeibnizAlgebra,
    LieAlgebra,
    Representation,
    _violations,
    check_representation,
    symmetrization,
)


# ---------------------------------------------------------------------------
# the DGLA category


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

    # L acting on itself: the module's Leibniz rule and d o d = 0 are L's own
    bad += _differential_violations(as_module(L), "leibniz_rule")
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


class CategoryReport(_Frozen):
    __match_args__ = ("surjective", "kernel_matches")

    def __init__(self, surjective: bool, kernel_matches: bool):
        self.__dict__.update(surjective=surjective, kernel_matches=kernel_matches)

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


class DGLAMorphism(_Record):
    __match_args__ = ("source", "target", "components")

    def __init__(self, source: DGLieAlgebra, target: DGLieAlgebra,
                 components: dict[int, Matrix]):
        self.source = source
        self.target = target
        self.components = components

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
    qdata = g.quotient_data
    M = minimal_envelope(g)
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


class DGModule(_Graded):
    """Graded module over a DGLA, differential of degree -1, possibly in
    negative degrees.  actions[(p, q)] is the table of L_p x M_q -> M_{p+q};
    labels defaults to a new empty dict."""

    __match_args__ = ("algebra", "degree_dims", "actions", "differentials", "labels")

    def __init__(self, algebra: DGLieAlgebra, degree_dims: dict[int, int],
                 actions: dict[tuple[int, int], Matrix], differentials: dict[int, Matrix],
                 labels: dict[int, tuple[str, ...]] | None = None):
        self.algebra = algebra
        self.degree_dims = degree_dims
        self.actions = actions
        self.differentials = differentials
        self.labels = {} if labels is None else labels

    def action(self, p: int, q: int) -> Matrix:
        """The table of L_p x M_q -> M_{p+q}, zero where none is stored."""
        t = self.actions.get((p, q))
        return Matrix.zeros(self.dim(p + q), self.algebra.dim(p) * self.dim(q)) if t is None else t


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

    return tuple(bad) + _differential_violations(mod, "module_leibniz")


def _differential_violations(mod: DGModule, tag: str) -> tuple[tuple, ...]:
    """Violations of d(x.m) = (dx).m + (-1)^p x.(dm), tagged tag, then
    of d o d = 0."""
    bad = []
    L = mod.algebra
    for p in L.degrees():
        for s in mod.degrees():
            if mod.dim(p + s) == 0 or mod.dim(p + s - 1) == 0:
                continue
            np_, ns = L.dim(p), mod.dim(s)
            # d(x.m) - (dx).m - (-1)^p x.(dm)
            defect = _lincomb(
                (1, mod.differential(p + s) @ mod.action(p, s)),
                (-1, mod.action(p - 1, s) @ _kron(L.differential(p), Matrix.identity(ns))),
                (-((-1) ** p), mod.action(p, s - 1) @ _kron(Matrix.identity(np_), mod.differential(s))))
            bad += [(tag, p, s, i, a) for i, a in _violations(defect, np_, ns)]

    for q in mod.degrees():
        if mod.dim(q - 1) and mod.dim(q - 2):
            if not (mod.differential(q - 1) @ mod.differential(q)).is_zero():
                bad.append(("d_squared", q))

    return tuple(bad)


def as_module(L: DGLieAlgebra) -> DGModule:
    """L acting on itself by its own bracket."""
    return DGModule(L, dict(L.degree_dims), dict(L.brackets), dict(L.differentials), dict(L.labels))


def minimal_module(g: LeibnizAlgebra, rep: Representation) -> DGModule:
    """Three-step DG module  anti -> m -> m_symm  over the minimal envelope.

    Degree 1 is the span of the symmetrized action vectors [x,m]+[m,x],
    degree -1 the quotient by it.  Raises IllDefinedAction when rep fails
    the two-sided module identities, or when an action fails to preserve
    the span or descend to the quotient.
    """
    bad = check_representation(g, rep)
    if bad:
        raise IllDefinedAction(f"not a two-sided module: {bad[:3]}")
    qdata = g.quotient_data
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
        algebra=minimal_envelope(g),
        degree_dims={1: t, 0: d, -1: u_dim},
        actions={(0, 0): a00, (0, 1): a01, (0, -1): a0m1,
                 (1, -1): a1m1, (1, 0): a10, (2, -1): a2m1},
        differentials={1: anti.basis, 0: qmat},
        labels={1: anti_names, 0: rep.basis_names, -1: symm_names},
    )


# ---------------------------------------------------------------------------
# classical exterior-power complexes of a Lie algebra (entry point + oracle)


def _wedge_insert(k: int, rest: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    if k in rest:
        return None
    pos = sum(1 for t in rest if t < k)
    return -1 if pos % 2 else 1, rest[:pos] + (k,) + rest[pos:]


def _classical_complex(h: LieAlgebra, action: Matrix | None, m: int, n_max: int,
                       raising: bool) -> ChainComplex:
    """m (x) Lambda^n h in degrees 0..n_max; action is the table of h
    acting on m, None for the zero action."""
    columns = h.structure.transpose().int_rows
    den = lcm(*(cd for cd, _ in columns))
    brackets = [[(k, x * (den // cd)) for k, x in col] for cd, col in columns]

    def terms(xs: tuple[int, ...]):
        """The boundary terms of xs, their ints over den."""
        n = len(xs)
        for t in range(1, n + 1):
            yield xs[t - 1], xs[:t - 1] + xs[t:], -den if t % 2 else den
        for s in range(1, n + 1):
            for t in range(s + 1, n + 1):
                sign = -1 if (s + t) % 2 else 1
                rest = tuple(v for idx, v in enumerate(xs) if idx not in (s - 1, t - 1))
                for k, c in brackets[xs[s - 1] * h.dim + xs[t - 1]]:
                    ins = _wedge_insert(k, rest)
                    if ins is not None:
                        wsign, word = ins
                        yield None, word, sign * c * wsign

    mons = [list(itertools.combinations(range(h.dim), n)) for n in range(n_max + 1)]
    return _monomial_complex(mons, [[(den, list(terms(xs))) for xs in ws] for ws in mons],
                             action, m, raising)


def classical_ce(h: LieAlgebra, coefficients: Coefficients, n_max: int) -> ChainComplex:
    """Exterior-power chain complex of a Lie algebra with trivial
    coefficients or coefficients in an h-module."""
    m_dim, action = _lie_action(h, coefficients)
    return _classical_complex(h, action, m_dim, n_max, raising=False)


def classical_ce_cochain(h: LieAlgebra, coefficients: Coefficients, n_max: int) -> ChainComplex:
    """Exterior-power cochain complex: the transposed chain complex of the
    contragredient module."""
    m_dim, _ = _lie_action(h, coefficients)
    _, action = _lie_action(h, _dual(h, coefficients))
    return _classical_complex(h, action, m_dim, n_max, raising=True)
