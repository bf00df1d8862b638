"""Chain complexes for Leibniz algebras.

Four families live here:

* the tensor-module complex  m (x) g^{(x)n}  and its cochain version,
* the small complexes built from the enveloping DGLA of g (degree-wise
  spanned by normal monomials in the degree >= 1 letters),
* the classical exterior-power complexes of a Lie algebra, used as the
  comparison target and as an oracle,
* the subcomplex spanned by left-normed graded commutators, including
  its weight-graded blocks over a truncated free algebra.

All boundary maps are exact integer/rational matrices and every complex
is gated on d o d = 0 at construction.

The tensor-module complex and fg_subcomplex share one boundary builder,
_product_boundaries.  In itertools.product order a word's index is its
base-d number, so d_n is built from d_{n-1}: the terms of the slots
j < n are d_{n-1} (x) id, re-keyed as (R, C) -> (R d + x, C d + x) for
each last letter x, and only the terms of the last slot are new.  Those
take a source to its prefix (index // d), with [x_n, x_i] written into
slot i by an index shift or the action a_n on the coefficient.  The sums
run over ints scaled by D, the lcm of the denominators of the structure
constants and the actions, and reach the matrix as ints over D.
The free-algebra weight blocks order their words by weight, not by
product order, and keep the per-word _tensor_boundary with the
free-algebra bracket, whose constants are ints.  The commutator
subcomplexes restrict these boundaries to the spans of
freealg.CommutatorSpans.

The boundary of the tensor-module complex, written for m (x) x1 ... xn:

    d = sum_{1<=i<j<=n} (-1)^j  m (x) x1 ... [xj,xi]@i ... ^xj ... xn
      + sum_{j}        (-1)^{j+1} a_j(m) (x) x1 ... ^xj ... xn

For one-sided (Lie-module) coefficients a_j(m) = [m,xj] := -xj.m for
every j.  For two-sided coefficients the only action rules compatible
with d o d = 0 put the module's own right action in the first slot:
a_1(m) = -([m,x1] + [x1,m]) and a_j(m) = -[xj,m] for j >= 2.  Taking
the right action in every slot breaks d o d = 0; see REP_CHAIN_RULE
below and scripts/pin_chain_rule.py for the gate that pinned this.

Cochain complexes are not built separately.  Hom(C_n, m) is the dual of
the chain complex with coefficients in the dual module m*, so every
cochain complex is the transposed chain complex of m*: one boundary
builder per family, called with the contragredient action a.f = -f o a
(Loday-Pirashvili 1993, Math. Ann. 296).  For two-sided coefficients the
pinned cochain rule acts on the value f(...) and is read backwards into
the chain action of m*; under the corrected rules m* has left' = -L^T and
right' = R^T + L^T.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .dgla import DGLieAlgebra, minimal_envelope
from .exactla import (
    Matrix,
    ShapeMismatch,
    Subspace,
    _kron,
    _lincomb,
    _swap,
    add_into,
    column_span,
    kernel_basis,
    quotient_projection,
    quotient_section,
    restrict_map,
)
from .freealg import CommutatorSpans, FreeLeibnizTruncation, witt_dim
from .leibcore import (
    LeibnizAlgebra,
    LieAlgebra,
    LieModule,
    QuotientData,
    Representation,
    lie_module_lift,
    lie_quotient,
)
from .pbw import PBWAlgebra, Poly, Word


class DifferentialSquareNonzero(Exception):
    """Adjacent boundary maps do not compose to zero."""


class NotAChainMap(Exception):
    """A comparison map fails to commute with the differentials."""


class UnsupportedCoefficients(ValueError):
    """A complex family does not take the given kind of coefficients."""


# Action rules for two-sided module coefficients, pinned by the gate in
# scripts/pin_chain_rule.py.  Each rule is a (p, q) pair for the first
# slot and one for the later slots; the action in a slot is
# p [x,m] + q [m,x].  Chain rules ("first" is the j = 1 slot):
#   corrected  first = -([m,x] + [x,m]),  later = -[x,m]   (canonical)
#   left       first = later = -[x,m]
#   right      first = later = [m,x]
#   naive      first = [m,x] + [x,m],     later = [m,x]
# "right" and "naive" fail d o d = 0 already for the adjoint module of
# the 2-dim algebra [e1,e2] = e2; "corrected" and "left" pass on the
# whole randomized corpus, and "corrected" is the one whose first slot
# degenerates to zero exactly on anti-symmetric (lifted) coefficients.
CHAIN_RULES = {
    "corrected": ((-1, -1), (-1, 0)),
    "left": ((-1, 0), (-1, 0)),
    "right": ((0, 1), (0, 1)),
    "naive": ((1, 1), (0, 1)),
}
REP_CHAIN_RULE = "corrected"

# Cochain rules, acting on the value f(...):
#   corrected  first = -[f,x],            later = [x,f]    (canonical)
#   plain      first = later = [x,f]
#   naive      first = [x,f] + [f,x],     later = [x,f]
# "naive" fails d o d = 0 on the same adjoint witness; "corrected" and
# "plain" agree on lifted coefficients (there -[f,x] = [x,f]), which is
# what makes the two-sided branch collapse onto the one-sided one.
COCHAIN_RULES = {
    "corrected": ((0, -1), (1, 0)),
    "plain": ((1, 0), (1, 0)),
    "naive": ((1, 1), (1, 0)),
}
REP_COCHAIN_RULE = "corrected"


@dataclass(frozen=True)
class ChainComplex:
    """dims[i] is the dimension in degree offset+i.  For raising=False
    diffs[i] maps degree offset+i+1 to offset+i; for raising=True it maps
    offset+i to offset+i+1."""

    offset: int
    dims: tuple[int, ...]
    diffs: tuple[Matrix, ...]
    raising: bool = False

    def __post_init__(self):
        if len(self.diffs) != max(len(self.dims) - 1, 0):
            raise ShapeMismatch("expected one differential per adjacent pair of degrees")
        for i, d in enumerate(self.diffs):
            lo, hi = self.dims[i], self.dims[i + 1]
            want = (hi, lo) if self.raising else (lo, hi)
            if (d.rows, d.cols) != want:
                raise ShapeMismatch(
                    f"differential {i} has shape {(d.rows, d.cols)}, expected {want}")
        for i in range(len(self.diffs) - 1):
            if self.raising:
                comp = self.diffs[i + 1] @ self.diffs[i]
            else:
                comp = self.diffs[i] @ self.diffs[i + 1]
            if not comp.is_zero():
                raise DifferentialSquareNonzero(
                    f"composition through degree {self.offset + i + 1} is nonzero")

    def degree_range(self) -> tuple[int, ...]:
        return tuple(self.offset + i for i in range(len(self.dims)))

    def _adjacent(self, k: int) -> tuple[Matrix | None, Matrix | None]:
        i = k - self.offset
        below = self.diffs[i - 1] if i - 1 >= 0 else None
        above = self.diffs[i] if i < len(self.diffs) else None
        return below, above

    def homology(self, k: int) -> int:
        i = k - self.offset
        if i < 0 or i >= len(self.dims):
            return 0
        below, above = self._adjacent(k)
        h = self.dims[i]
        if below is not None:
            h -= below.rank()
        if above is not None:
            h -= above.rank()
        return h

    def betti(self) -> tuple[int, ...]:
        return tuple(self.homology(k) for k in self.degree_range())

    def boundary_pair(self, k: int) -> tuple[Matrix | None, Matrix | None]:
        """(map out of degree k, map into degree k) for homology at k."""
        below, above = self._adjacent(k)
        if self.raising:
            return above, below
        return below, above

    def cycle_space(self, k: int) -> Subspace:
        i = k - self.offset
        out_map, _ = self.boundary_pair(k)
        if out_map is None:
            return Subspace.full(self.dims[i])
        return kernel_basis(out_map)

    def boundary_space(self, k: int) -> Subspace:
        i = k - self.offset
        _, in_map = self.boundary_pair(k)
        if in_map is None:
            return Subspace.zero(self.dims[i])
        return column_span(in_map)


def _complex(dims: list[int], boundaries, raising: bool) -> ChainComplex:
    """ChainComplex in degrees 0..len(dims)-1 from (entries, den) for each
    boundary C_n -> C_{n-1}, n = 1, 2, ...: its sparse entries, each
    divided by den.

    raising=True gives the dual cochain complex: the keys of every entry
    map are swapped, which transposes C_n -> C_{n-1} into the coboundary
    C^{n-1} -> C^n before anything is densified.
    """
    diffs = []
    for n, (entries, den) in enumerate(boundaries, start=1):
        rows, cols = dims[n - 1], dims[n]
        if raising:
            rows, cols = cols, rows
            entries = {(c, r): v for (r, c), v in entries.items()}
        diffs.append(Matrix.from_entries(rows, cols, entries, den=den))
    return ChainComplex(0, tuple(dims), tuple(diffs), raising=raising)


def _block_transpose(t: Matrix, m: int, sign: int = 1) -> Matrix:
    """sign times the action table t of g x m -> m with each block
    transposed: column a*m + u of the result holds row u of the columns
    a*m + u2 of t."""
    entries = {}
    for c, col in enumerate(t.transpose().sparse_rows):
        a, u2 = divmod(c, m)
        for u, x in col:
            entries[(u2, a * m + u)] = sign * x
    return Matrix.from_entries(m, t.cols, entries)


def _contragredient(action: Matrix | None, m: int) -> Matrix | None:
    """The dual module's action a.f = -f o a, a block transpose."""
    return None if action is None else _block_transpose(action, m, -1)


def _require_left(g: LeibnizAlgebra) -> None:
    if g.convention != "left":
        raise ValueError("chain complexes expect the left convention; use opposite() first")


def _check_over_quotient(mod: LieModule, qdata: QuotientData) -> None:
    if mod.action.cols != qdata.quotient.dim * mod.dim:
        raise ValueError(
            f"module is over a {mod.action.cols // mod.dim}-dim Lie algebra, but the "
            f"maximal Lie quotient has dimension {qdata.quotient.dim}")


# ---------------------------------------------------------------------------
# coefficient systems for the tensor-module complexes


@dataclass(frozen=True)
class TrivialCoefficients:
    dim: int = 1


@dataclass(frozen=True)
class LieModuleCoefficients:
    """Module over the maximal Lie quotient, acting through the projection:
    [x,m] = pr(x).m and [m,x] = -pr(x).m.  quotient is lie_quotient(g) of
    the algebra g the complexes are built over, when the caller has built
    it already."""

    module: LieModule
    quotient: QuotientData | None = None


@dataclass(frozen=True)
class RepresentationCoefficients:
    rep: Representation


Coefficients = TrivialCoefficients | LieModuleCoefficients | RepresentationCoefficients


def trivial_coefficients(dim: int = 1) -> TrivialCoefficients:
    if not isinstance(dim, int) or dim < 1:
        raise ValueError(f"coefficient dimension must be a positive int, got {dim!r}")
    return TrivialCoefficients(dim)


def lie_coefficients(module: LieModule, quotient: QuotientData | None = None
                     ) -> LieModuleCoefficients:
    return LieModuleCoefficients(module, quotient)


def rep_coefficients(rep: Representation) -> RepresentationCoefficients:
    return RepresentationCoefficients(rep)


def _quotient(g: LeibnizAlgebra, coefficients: Coefficients) -> QuotientData:
    """The maximal Lie quotient of g: the one Lie-module coefficients carry,
    else built."""
    if isinstance(coefficients, LieModuleCoefficients) and coefficients.quotient is not None:
        return coefficients.quotient
    return lie_quotient(g)


def _slot_actions(g: LeibnizAlgebra, coefficients: Coefficients, raising: bool,
                  rule: str | None = None):
    """(m_dim, [first, later]) for the boundary builder, the tables of the
    chain actions g x m -> m of the j = 1 and j >= 2 slots; no tables for
    trivial coefficients.  A Lie module acts as its lift under the "right" chain
    and "plain" cochain rules; rule replaces the pinned two-sided one.
    For raising=True the cochain rule's action on the value is block
    transposed into the chain action of the dual module."""
    if isinstance(coefficients, TrivialCoefficients):
        return coefficients.dim, []
    if isinstance(coefficients, LieModuleCoefficients):
        qdata = _quotient(g, coefficients)
        _check_over_quotient(coefficients.module, qdata)
        rep = lie_module_lift(g, qdata, coefficients.module)
        rule = "plain" if raising else "right"
    elif isinstance(coefficients, RepresentationCoefficients):
        rep = coefficients.rep
        if rep.left_action.cols != g.dim * rep.dim or rep.right_action.cols != rep.dim * g.dim:
            raise ValueError("representation tables do not match the algebra dimension")
        rule = rule or (REP_COCHAIN_RULE if raising else REP_CHAIN_RULE)
    else:
        raise TypeError(f"unknown coefficient system {coefficients!r}")
    # p [x,m] + q [m,x] at column x*m_dim + u
    right = rep.right_action @ _swap(g.dim, rep.dim)
    tables = [_lincomb((p, rep.left_action), (q, right))
              for p, q in (COCHAIN_RULES if raising else CHAIN_RULES)[rule]]
    return rep.dim, [_block_transpose(t, rep.dim) for t in tables] if raising else tables


def _product_boundaries(g: LeibnizAlgebra, n_max: int, m_dim: int = 1, actions=()):
    """(int entries, D) of d_n: m (x) g^{(x)n} -> m (x) g^{(x)n-1} for
    n = 1..n_max, the entries over D, on words in itertools.product order
    with module block u at u d^n, by the last-letter recursion of the
    module docstring.  actions is [first, later] from _slot_actions, or
    empty."""
    d = g.dim
    columns = [t.transpose().int_rows for t in (g.structure, *actions)]
    den = lcm(*(cd for cols in columns for cd, _ in cols))

    def scaled(cols, w):
        """(c // w, c % w, the terms over den) for each nonzero column c."""
        return [(c // w, c % w, [(k, x * (den // cd)) for k, x in col])
                for c, (cd, col) in enumerate(cols) if col]

    # column b*d + a holds [e_b, e_a], and the action of e_x on f_u is
    # column x*m_dim + u
    brackets = [(a, b, terms) for b, a, terms in scaled(columns[0], d)]
    actions = [scaled(cols, m_dim) for cols in columns[1:]]
    prev: dict[tuple[int, int], int] = {}
    for n in range(1, n_max + 1):
        rows, cols = d ** (n - 1), d ** n
        sign = -1 if n % 2 else 1
        # the slots j < n: d_{n-1} (x) id, one copy per last letter x
        acc = {(r * d + x, c * d + x): v for (r, c), v in prev.items() for x in range(d)}
        # slot j = n: [x_n, x_i] into slot i of the prefix, then a_n(m)
        for i in range(1, n):
            place = d ** (n - 1 - i)
            for a, b, terms in brackets:
                shifted = [((k - a) * place, sign * c) for k, c in terms]
                for u in range(m_dim):
                    r0, c0 = u * rows, u * cols + b
                    # the prefixes with letter a in slot i
                    for start in range(a * place, rows, place * d):
                        for p in range(start, start + place):
                            col = c0 + p * d
                            for delta, v in shifted:
                                key = (r0 + p + delta, col)
                                acc[key] = acc.get(key, 0) + v
        if actions:
            for x, u, vec in actions[n > 1]:
                c0 = u * cols + x
                for u2, c in vec:
                    r0, v = u2 * rows, -sign * c
                    for p in range(rows):
                        key = (r0 + p, c0 + p * d)
                        acc[key] = acc.get(key, 0) + v
        prev = {key: v for key, v in acc.items() if v}
        yield prev, den


def _loday(g: LeibnizAlgebra, coefficients: Coefficients, n_max: int, raising: bool,
           rule: str | None = None) -> ChainComplex:
    """The tensor-module chain complex, or for raising=True the transposed
    chain complex of the dual module; rule replaces the pinned two-sided
    chain or cochain rule."""
    m_dim, actions = _slot_actions(g, coefficients, raising, rule)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    dims = [m_dim * g.dim ** n for n in range(n_max + 1)]
    return _complex(dims, _product_boundaries(g, n_max, m_dim, actions), raising)


def loday_complex(g: LeibnizAlgebra, coefficients: Coefficients, n_max: int,
                  _rep_rule: str | None = None) -> ChainComplex:
    """Tensor-module chain complex m (x) g^{(x)n} in degrees 0..n_max.

    Homology at the top stored degree is not meaningful (the next
    boundary map is not built); ask one degree higher than you need.
    """
    _require_left(g)
    return _loday(g, coefficients, n_max, False, _rep_rule)


def loday_cochain_complex(g: LeibnizAlgebra, coefficients: Coefficients, n_max: int,
                          _rep_rule: str | None = None) -> ChainComplex:
    """Cochain complex Hom(g^{(x)n}, m) in degrees 0..n_max: the transposed
    chain complex of the dual module."""
    _require_left(g)
    return _loday(g, coefficients, n_max, True, _rep_rule)


# ---------------------------------------------------------------------------
# complexes from the enveloping DGLA


@dataclass
class CEData:
    g: LeibnizAlgebra
    qdata: QuotientData
    envelope: DGLieAlgebra
    pbw: PBWAlgebra
    m_dim: int
    action: Matrix | None  # table of the degree-0 letters acting on m; None = zero action


def _ce_setup(g: LeibnizAlgebra, coefficients: Coefficients) -> CEData:
    _require_left(g)
    if isinstance(coefficients, RepresentationCoefficients):
        raise UnsupportedCoefficients(
            "enveloping-algebra complexes take trivial or Lie-module coefficients")
    qdata = _quotient(g, coefficients)
    envelope = minimal_envelope(g, qdata)
    if isinstance(coefficients, TrivialCoefficients):
        m_dim, action = coefficients.dim, None
    else:
        mod = coefficients.module
        _check_over_quotient(mod, qdata)
        m_dim, action = mod.dim, mod.action
    return CEData(g, qdata, envelope, PBWAlgebra(envelope), m_dim, action)


def _ce_monomials(envelope: DGLieAlgebra, n: int) -> list[Word]:
    """Normal words of total degree n in the degree 1 and 2 letters,
    ordered by ascending hat count then lexicographically."""
    n1, n2 = envelope.dim(1), envelope.dim(2)
    out: list[Word] = []
    for q in range(n // 2 + 1):
        p = n - 2 * q
        for xs in itertools.combinations(range(n1), p):
            for ys in itertools.combinations_with_replacement(range(n2), q):
                out.append(tuple((1, i) for i in xs) + tuple((2, j) for j in ys))
    return out


def _derive_word(images: dict[int, list], word: Word) -> Poly:
    """Graded-derivation image of a normal word, before normalization;
    images[deg][idx] lists the nonzero (letter, c) terms of the
    differential of the letter (deg, idx)."""
    out: Poly = {}
    sign = Fraction(1)
    for t, (deg, idx) in enumerate(word):
        for letter, c in images[deg][idx]:
            add_into(out, word[:t] + (letter,) + word[t + 1:], sign * c)
        if deg % 2:
            sign = -sign
    return out


def _ce_complex(data: CEData, action: Matrix | None, n_max: int,
                raising: bool) -> ChainComplex:
    """m (x) (normal monomials of degree n) in degrees 0..n_max; action is
    the table of the degree-0 letters acting on m, None for the zero
    action."""
    mons = [_ce_monomials(data.envelope, n) for n in range(n_max + 1)]
    index = [{w: i for i, w in enumerate(ws)} for ws in mons]
    m = data.m_dim
    acts = None if action is None else action.transpose().sparse_rows
    images = {deg: [[((deg - 1, a), c) for a, c in col]
                    for col in data.envelope.differential(deg).transpose().sparse_rows]
              for deg in (1, 2)}

    def boundary(n: int) -> dict[tuple[int, int], Fraction]:
        rows_w, cols_w = len(mons[n - 1]), len(mons[n])
        entries: dict[tuple[int, int], Fraction] = {}
        for widx, w in enumerate(mons[n]):
            nf = data.pbw.normal_form(_derive_word(images, w))
            for w2, c in nf.items():
                if w2 and w2[0][0] == 0:
                    if acts is None:
                        continue
                    r = index[n - 1][w2[1:]]
                    for u in range(m):
                        for u2, cc in acts[w2[0][1] * m + u]:
                            add_into(entries, (u2 * rows_w + r, u * cols_w + widx), -c * cc)
                else:
                    r = index[n - 1][w2]
                    for u in range(m):
                        add_into(entries, (u * rows_w + r, u * cols_w + widx), c)
        return entries

    dims = [m * len(ws) for ws in mons]
    return _complex(dims, ((boundary(n), 1) for n in range(1, n_max + 1)), raising)


def ce_chain(g: LeibnizAlgebra, coefficients: Coefficients, n_max: int) -> ChainComplex:
    """Chain complex m (x) (normal monomials of degree n) in degrees 0..n_max.

    The boundary applies the envelope differential as a graded derivation,
    normalizes, and folds a leading degree-0 letter onto the coefficient
    as m.xi = -xi.m (dropped entirely for trivial coefficients).
    """
    data = _ce_setup(g, coefficients)
    return _ce_complex(data, data.action, n_max, raising=False)


def ce_cochain(g: LeibnizAlgebra, coefficients: Coefficients, n_max: int) -> ChainComplex:
    """Cochain complex Hom(normal monomials, m): the transposed chain
    complex of the contragredient module."""
    data = _ce_setup(g, coefficients)
    return _ce_complex(data, _contragredient(data.action, data.m_dim), n_max, raising=True)


# ---------------------------------------------------------------------------
# classical exterior-power complexes of a Lie algebra (oracle + target)


def _wedge_insert(k: int, rest: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    if k in rest:
        return None
    pos = sum(1 for t in rest if t < k)
    return -1 if pos % 2 else 1, rest[:pos] + (k,) + rest[pos:]


def _classical_complex(h: LieAlgebra, action: Matrix | None, m: int, n_max: int,
                       raising: bool) -> ChainComplex:
    """m (x) Lambda^n h in degrees 0..n_max; action is the table of h
    acting on m, None for the zero action."""
    mons = [list(itertools.combinations(range(h.dim), n)) for n in range(n_max + 1)]
    index = [{w: i for i, w in enumerate(ws)} for ws in mons]
    brackets = h.structure.transpose().sparse_rows
    acts = None if action is None else action.transpose().sparse_rows

    def boundary(n: int) -> dict[tuple[int, int], Fraction]:
        rows_w, cols_w = len(mons[n - 1]), len(mons[n])
        entries: dict[tuple[int, int], Fraction] = {}
        for widx, xs in enumerate(mons[n]):
            if acts is not None:
                for t in range(1, n + 1):
                    sign = -1 if t % 2 else 1
                    r = index[n - 1][xs[:t - 1] + xs[t:]]
                    for u in range(m):
                        for u2, c in acts[xs[t - 1] * m + u]:
                            add_into(entries, (u2 * rows_w + r, u * cols_w + widx), sign * c)
            for s in range(1, n + 1):
                for t in range(s + 1, n + 1):
                    sign = -1 if (s + t) % 2 else 1
                    rest = tuple(v for idx, v in enumerate(xs) if idx not in (s - 1, t - 1))
                    for k, c in brackets[xs[s - 1] * h.dim + xs[t - 1]]:
                        ins = _wedge_insert(k, rest)
                        if ins is None:
                            continue
                        wsign, word = ins
                        r = index[n - 1][word]
                        for u in range(m):
                            add_into(entries, (u * rows_w + r, u * cols_w + widx),
                                     sign * c * wsign)
        return entries

    dims = [m * len(ws) for ws in mons]
    return _complex(dims, ((boundary(n), 1) for n in range(1, n_max + 1)), raising)


def classical_ce(h: LieAlgebra, module: LieModule | None, n_max: int,
                 m_dim: int | None = None) -> ChainComplex:
    """Exterior-power chain complex of a Lie algebra; module=None means
    trivial coefficients of dimension m_dim (default 1)."""
    if module is None:
        return _classical_complex(h, None, m_dim or 1, n_max, raising=False)
    return _classical_complex(h, module.action, module.dim, n_max, raising=False)


def classical_ce_cochain(h: LieAlgebra, module: LieModule | None, n_max: int,
                         m_dim: int | None = None) -> ChainComplex:
    """Exterior-power cochain complex: the transposed chain complex of the
    contragredient module."""
    if module is None:
        return _classical_complex(h, None, m_dim or 1, n_max, raising=True)
    return _classical_complex(h, _contragredient(module.action, module.dim), module.dim, n_max,
                              raising=True)


# ---------------------------------------------------------------------------
# comparison: projection from the tensor-module complex onto the small one


def _projection_blocks(data: CEData, n_max: int) -> list[Matrix]:
    """p_n: g^{(x)n} -> span of normal degree-n monomials, by normalizing
    the product of degree-1 letters.  Identity in degrees 0 and 1."""
    base = data.g.dim
    mons = [_ce_monomials(data.envelope, n) for n in range(n_max + 1)]
    index = [{w: i for i, w in enumerate(ws)} for ws in mons]
    out = []
    for n in range(n_max + 1):
        entries: dict[tuple[int, int], Fraction] = {}
        for widx, word in enumerate(itertools.product(range(base), repeat=n)):
            poly = {tuple((1, i) for i in word): Fraction(1)}
            for w2, c in data.pbw.normal_form(poly).items():
                add_into(entries, (index[n][w2], widx), c)
        out.append(Matrix.from_entries(len(mons[n]), base ** n, entries))
    return out


def _induced_map(src: ChainComplex, dst: ChainComplex, f_k: Matrix, k: int) -> Matrix:
    """Map on homology at degree k induced by a chain map component f_k."""
    K, I = src.cycle_space(k), src.boundary_space(k)
    K2, I2 = dst.cycle_space(k), dst.boundary_space(k)
    # boundaries are cycles (the d o d gate), so these coordinates exist
    IK = column_span(K.column_coords(I.basis))
    IK2 = column_span(K2.column_coords(I2.basis))
    return quotient_projection(IK2) @ restrict_map(f_k, K, K2) @ quotient_section(IK)


@dataclass(frozen=True)
class ComparisonReport:
    degrees: tuple[int, ...]
    loday_homology: tuple[int, ...]
    ce_homology: tuple[int, ...]
    loday_cohomology: tuple[int, ...]
    ce_cohomology: tuple[int, ...]
    chain_map_ranks: tuple[int, ...]
    cochain_map_ranks: tuple[int, ...]
    h0_iso: bool
    h1_iso: bool
    hl2_to_h2_surjective: bool | None
    h2_to_hl2_injective: bool | None


def ce_projection(g: LeibnizAlgebra, coefficients: Coefficients, n_max: int
                  ) -> tuple[tuple[Matrix, ...], tuple[Matrix, ...], ComparisonReport]:
    """Chain maps from the tensor-module complex onto the small complex,
    the dual cochain maps, and the homology comparison up to n_max - 1.

    Raises NotAChainMap when either family fails to commute with the
    differentials.
    """
    data = _ce_setup(g, coefficients)
    if isinstance(coefficients, LieModuleCoefficients):
        coefficients = lie_coefficients(coefficients.module, data.qdata)
    lod = _loday(g, coefficients, n_max, False)
    ce = _ce_complex(data, data.action, n_max, raising=False)
    lodco = _loday(g, coefficients, n_max, True)
    ceco = _ce_complex(data, _contragredient(data.action, data.m_dim), n_max, raising=True)
    blocks = _projection_blocks(data, n_max)
    m = data.m_dim
    P = [_kron(Matrix.identity(m), b) for b in blocks]
    Q = [p.transpose() for p in P]

    for n in range(1, n_max + 1):
        lhs = P[n - 1] @ lod.diffs[n - 1]
        rhs = ce.diffs[n - 1] @ P[n]
        if lhs != rhs:
            raise NotAChainMap(f"projection fails to commute with the boundary at degree {n}")
    for n in range(0, n_max):
        lhs = lodco.diffs[n] @ Q[n]
        rhs = Q[n + 1] @ ceco.diffs[n]
        if lhs != rhs:
            raise NotAChainMap(f"pullback fails to commute with the coboundary at degree {n}")

    degrees = tuple(range(n_max))
    lod_b = tuple(lod.homology(k) for k in degrees)
    ce_b = tuple(ce.homology(k) for k in degrees)
    lodco_b = tuple(lodco.homology(k) for k in degrees)
    ceco_b = tuple(ceco.homology(k) for k in degrees)
    chain_ranks = tuple(_induced_map(lod, ce, P[k], k).rank() for k in degrees)
    cochain_ranks = tuple(_induced_map(ceco, lodco, Q[k], k).rank() for k in degrees)

    def iso(k: int) -> bool:
        return (lod_b[k] == ce_b[k] == chain_ranks[k]
                and ceco_b[k] == lodco_b[k] == cochain_ranks[k])

    h2_surj = None
    h2_inj = None
    if n_max >= 3:
        h2_surj = chain_ranks[2] == ce_b[2]
        h2_inj = cochain_ranks[2] == ceco_b[2]

    report = ComparisonReport(
        degrees=degrees,
        loday_homology=lod_b,
        ce_homology=ce_b,
        loday_cohomology=lodco_b,
        ce_cohomology=ceco_b,
        chain_map_ranks=chain_ranks,
        cochain_map_ranks=cochain_ranks,
        h0_iso=iso(0),
        h1_iso=iso(1) if n_max >= 2 else False,
        hl2_to_h2_surjective=h2_surj,
        h2_to_hl2_injective=h2_inj,
    )
    return tuple(P), tuple(Q), report


# ---------------------------------------------------------------------------
# the left-normed graded-commutator subcomplex


def _tensor_boundary(words: list[tuple], targets: list[tuple],
                     bracket) -> dict[tuple[int, int], int]:
    """Entries of the trivial-coefficient d: T^n -> T^{n-1} from the source
    words of T^n, all of length n, to the target words of T^{n-1};
    bracket(a, b) maps each letter k to the int c_k of [b, a]."""
    index = {t: i for i, t in enumerate(targets)}
    acc: dict[tuple[int, int], int] = {}
    for widx, word in enumerate(words):
        for j in range(2, len(word) + 1):
            sj = -1 if j % 2 else 1
            b, rest = word[j - 1], word[j:]
            for i in range(1, j):
                head, tail = word[:i - 1], word[i:j - 1] + rest
                for k, c in bracket(word[i - 1], b).items():
                    key = (index[head + (k,) + tail], widx)
                    acc[key] = acc.get(key, 0) + sj * c
    return {key: v for key, v in acc.items() if v}


def _commutator_complex(spans: CommutatorSpans, blocks: list[tuple[int, int]], boundaries,
                        offset: int) -> ChainComplex:
    """Restriction of the ambient boundaries, one (entries, den) per
    adjacent pair of blocks on the words of spans, to the commutator spans
    of the blocks (n, w), one block per degree from offset up."""
    subs = [spans.span(n, w) for n, w in blocks]
    diffs = []
    for (n, w), below, src, dst, (entries, den) in zip(blocks[1:], blocks, subs[1:], subs,
                                                      boundaries):
        ambient = Matrix.from_entries(len(spans.words(*below)), len(spans.words(n, w)), entries,
                                      den=den)
        diffs.append(restrict_map(ambient, src, dst))
    return ChainComplex(offset, tuple(s.dim for s in subs), tuple(diffs), raising=False)


def fg_subcomplex(g: LeibnizAlgebra, n_max: int) -> ChainComplex:
    """Restriction of the trivial-coefficient boundary to the spans of
    left-normed graded commutators inside each tensor power.

    Raises NotInvariant (from the restriction) if a boundary were to leave
    the span, which does not happen for genuine Leibniz brackets.
    """
    _require_left(g)
    # with every letter of weight 1 the blocks (n, n) are in product order
    spans = CommutatorSpans(lambda v: range(g.dim) if v == 1 else ())
    return _commutator_complex(spans, [(n, n) for n in range(n_max + 1)],
                               _product_boundaries(g, n_max), 0)


def fg_weight_complex(fl: FreeLeibnizTruncation, w: int,
                      spans: CommutatorSpans | None = None) -> ChainComplex:
    """Weight-w block of the graded-commutator subcomplex over the free
    algebra, in degrees 1..w.  The block is finite: no tensor degree
    above w carries weight w.  spans, built on fl.words, may be shared
    between weights."""
    if w < 1 or w > fl.max_weight:
        raise ValueError(f"weight {w} outside the truncation 1..{fl.max_weight}")
    if spans is None:
        spans = CommutatorSpans(fl.words)
    boundaries = ((_tensor_boundary(spans.words(n, w), spans.words(n - 1, w), fl.bracket_words), 1)
                  for n in range(2, w + 1))
    return _commutator_complex(spans, [(n, w) for n in range(1, w + 1)], boundaries, 1)


DEFAULT_WEIGHT_BUDGET = {1: 14, 2: 7}
FALLBACK_WEIGHT_BUDGET = 6


@dataclass(frozen=True)
class WeightVerdict:
    weight: int
    h1: int
    expected_h1: int
    higher: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.h1 == self.expected_h1 and all(h == 0 for h in self.higher)


@dataclass(frozen=True)
class ConjectureReport:
    num_generators: int
    max_weight: int
    weights: tuple[WeightVerdict, ...]

    @property
    def failures(self) -> tuple[WeightVerdict, ...]:
        return tuple(v for v in self.weights if not v.ok)

    @property
    def verdict(self) -> str:
        return "PASS" if not self.failures else "FALSIFICATION"


def conjecture_check(num_generators: int, max_weight: int | None = None) -> ConjectureReport:
    """Per-weight homology of the graded-commutator subcomplex over the
    free algebra: expects H_1 = necklace count and H_n = 0 for n >= 2.

    A failing weight is reported, not raised; the verdict string flags it.
    """
    if max_weight is None:
        max_weight = DEFAULT_WEIGHT_BUDGET.get(num_generators, FALLBACK_WEIGHT_BUDGET)
    fl = FreeLeibnizTruncation(num_generators, max_weight)
    spans = CommutatorSpans(fl.words)
    verdicts = []
    for w in range(1, max_weight + 1):
        cplx = fg_weight_complex(fl, w, spans)
        betti = cplx.betti()
        verdicts.append(WeightVerdict(
            weight=w,
            h1=betti[0],
            expected_h1=witt_dim(num_generators, w),
            higher=tuple(betti[1:]),
        ))
    return ConjectureReport(num_generators, max_weight, tuple(verdicts))
