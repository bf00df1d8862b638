"""Differential graded Lie algebras and the minimal envelope of a Leibniz algebra.

A DGLA here is concentrated in non-negative degrees, with differential of
degree -1 and a graded bracket satisfying

    [x,y] = (-1)^{|x||y|+1} [y,x]
    (-1)^{|x||z|}[x,[y,z]] + (-1)^{|y||x|}[y,[z,x]] + (-1)^{|z||y|}[z,[x,y]] = 0
    d[x,y] = [dx,y] + (-1)^{|x|}[x,dy]

The derived bracket [x,y] := [d x, y] makes the degree-1 part a left
Leibniz algebra.  `minimal_envelope` builds the smallest DGLA that
realizes a given Leibniz algebra this way; the enveloping-algebra
complexes of homology are built on it.  The rest of the category (the
cone, the functor back, the counit, DG modules and the axiom checkers)
is library API that no command runs, and lives in dgcat, which
`import leibhom.cli` does not load.

Brackets are tables (see leibcore): brackets[(p, q)] is the Matrix of
L_p x L_q -> L_{p+q}, column i*dim(q) + j holding [e_i, e_j], so every
axiom is a matrix identity.
"""

from __future__ import annotations

from .exactla import Matrix, Subspace, _kron, _lincomb, _matrix, _Record, _swap
from .leibcore import LeibnizAlgebra, _polarized


class NotInCategory(Exception):
    """The DGLA fails the surjectivity/kernel conditions needed for the counit."""


class IllDefinedAction(Exception):
    """A would-be module action does not preserve the required subquotients."""


class _Graded(_Record):
    """The graded accessors of a DG object with degree_dims and
    differentials (of degree -1, zero where none is stored)."""

    def dim(self, p: int) -> int:
        return self.degree_dims.get(p, 0)

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(p for p, d in self.degree_dims.items() if d > 0))

    def differential(self, p: int) -> Matrix:
        m = self.differentials.get(p)
        if m is None:
            m = Matrix.zeros(self.dim(p - 1), self.dim(p))
        return m


class DGLieAlgebra(_Graded):
    """brackets[(p, q)] is the table of L_p x L_q -> L_{p+q}; labels
    defaults to a new empty dict."""

    __match_args__ = ("name", "degree_dims", "brackets", "differentials", "labels")

    def __init__(self, name: str, degree_dims: dict[int, int],
                 brackets: dict[tuple[int, int], Matrix], differentials: dict[int, Matrix],
                 labels: dict[int, tuple[str, ...]] | None = None):
        self.name = name
        self.degree_dims = degree_dims
        self.brackets = brackets
        self.differentials = differentials
        self.labels = {} if labels is None else labels

    def bracket(self, p: int, q: int) -> Matrix:
        """The table of L_p x L_q -> L_{p+q}, zero where none is stored."""
        t = self.brackets.get((p, q))
        return Matrix.zeros(self.dim(p + q), self.dim(p) * self.dim(q)) if t is None else t


def _coords_in(sub: Subspace, m: Matrix, exc: type[Exception], msg) -> Matrix:
    """Coordinates in sub of the columns of m; raises exc(msg(c)) for the
    first column c outside sub."""
    coords = sub.column_coords(m)
    if coords is None:
        cols = m.transpose().int_rows
        raise exc(msg(next(c for c, col in enumerate(cols)
                           if sub.column_coords(_matrix(1, m.rows, (col,)).transpose()) is None)))
    return coords


def minimal_envelope(g: LeibnizAlgebra) -> DGLieAlgebra:
    """Three-step DGLA  ann -> g -> g_Lie  with derived bracket equal to g's.

    Degree 0 is the maximal Lie quotient, degree 2 the span of squares,
    d1 the projection and d2 the inclusion.  The degree-(1,1) bracket is
    the symmetrized original bracket read in square-span coordinates, so
    [x,x] = 2*[x,x]^ there.
    """
    qdata = g.quotient_data
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
