"""Chain complexes for Leibniz algebras.

Three families live here:

* the tensor-module complex  m (x) g^{(x)n}  and its cochain version,
* the small complexes built from the enveloping DGLA of g (degree-wise
  spanned by normal monomials in the degree >= 1 letters),
* the subcomplex spanned by left-normed graded commutators, including
  its blocks by weight and by letter content over a truncated free algebra.

The classical exterior-power complexes of a Lie algebra, which no command
builds, are in dgcat; they share _monomial_complex with the small ones.

All boundary maps are exact integer/rational matrices and every complex
is gated on d o d = 0 at construction.

The tensor-module complex and fg_subcomplex share one boundary builder,
_product_boundaries.  In itertools.product order a word's index is its
base-d number, so d_n is built from d_{n-1}: the terms of the slots
j < n are d_{n-1} (x) id, whose row r d + x is row r of d_{n-1} with
each column c moved to c d + x, and only the terms of the last slot are
new.  Those take a source to its prefix (index // d), with [x_n, x_i]
written into slot i by an index shift or the action a_n on the
coefficient.  The sums run over ints scaled by D, the lcm of the
denominators of the structure constants and the actions, one dict per
row, and the builder writes the canonical rows of the matrix itself:
zero sums dropped, columns sorted, each row over D reduced by _canon.
The free-algebra blocks, keyed (n, c) by a weight or a letter content,
order their words by the grades of the letters, not by product order,
and keep the per-word _tensor_boundary.  It reads the int terms of
lambda(x_j) (see freealg) once per (word, j) and writes the free bracket
[x_j, x_i] = x_i (x) lambda(x_j) into each slot i < j, one column per
source word.  The commutator subcomplexes restrict these boundaries to
the forward echelon bases of freealg.CommutatorSpans.basis, each block's
one basis as source and as target (see _restrict), a free block's taken
in decreasing lead order.
conjecture_check builds one content block per S_d orbit and counts it
orbit-size times.

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
cochain complex is the transposed chain complex of _dual(g, m), built by
its family's one boundary builder under the one rule table.  A
ChainComplex stores the boundaries its builder wrote; a cochain complex
is that chain complex flagged raising=True, and its coboundaries, diffs,
are the transposed boundaries, built on first read.  A Lie module
acts on its dual by a.f = -f o a; the two-sided dual has left' = -L^T and
right' = R^T + L^T, with ^T swapping the two module slots (Loday-Pirashvili
1993, Math. Ann. 296).  Trivial coefficients and a zero action are their
own duals.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import gcd, lcm

from .dgla import DGLieAlgebra, minimal_envelope
from .exactla import (
    Matrix,
    NotInvariant,
    ShapeMismatch,
    Subspace,
    _Frozen,
    _kron,
    _lincomb,
    _matrix,
    _canon,
    _Record,
    _swap,
    add_into,
    column_span,
    kernel_basis,
    rank,
    restrict_map,  # no caller here; the benchmark tracer reads this binding
)
from .freealg import CommutatorSpans, FreeLeibnizTruncation, content_orbits, witt_dim
from .leibcore import (
    LeibnizAlgebra,
    LieAlgebra,
    LieModule,
    Representation,
    _actions,
    _check_width,
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
# A cochain complex applies the rule to the dual module m*; on the value
# f(...) "corrected" then acts by -[f,x] in the first slot and [x,f] in
# the later ones, and "left" by [x,f] in every slot.
CHAIN_RULES = {
    "corrected": ((-1, -1), (-1, 0)),
    "left": ((-1, 0), (-1, 0)),
    "right": ((0, 1), (0, 1)),
    "naive": ((1, 1), (0, 1)),
}
REP_CHAIN_RULE = "corrected"


class ChainComplex(_Frozen):
    """dims[i] is the dimension in degree offset+i and boundaries[i], the
    map its builder wrote, maps degree offset+i+1 to offset+i.  A cochain
    complex is the chain complex it is the transpose of, flagged
    raising=True: its coboundaries diffs[i], degree offset+i to
    offset+i+1, are the transposed boundaries, built on first read.

    Homology is reported only in the degrees that have both adjacent maps
    stored: stored up to degree N, the complex reports degrees
    offset..N-1, and asking for any other degree raises ValueError."""

    __match_args__ = ("offset", "dims", "boundaries", "raising")

    def __init__(self, offset: int, dims: tuple[int, ...], boundaries: tuple[Matrix, ...],
                 raising: bool = False):
        self.__dict__.update(offset=offset, dims=dims, boundaries=boundaries, raising=raising)
        self.__post_init__()

    def __post_init__(self):
        """The shape checks and the d o d = 0 gate."""
        if len(self.boundaries) != max(len(self.dims) - 1, 0):
            raise ShapeMismatch("expected one differential per adjacent pair of degrees")
        for i, d in enumerate(self.boundaries):
            want = self.dims[i], self.dims[i + 1]
            if (d.rows, d.cols) != want:
                raise ShapeMismatch(
                    f"differential {i} has shape {(d.rows, d.cols)}, expected {want}")
        for i in range(len(self.boundaries) - 1):
            if not (self.boundaries[i] @ self.boundaries[i + 1]).is_zero():
                raise DifferentialSquareNonzero(
                    f"composition through degree {self.offset + i + 1} is nonzero")

    @cached_property
    def diffs(self) -> tuple[Matrix, ...]:
        """The maps of the complex in its own direction: the boundaries, or
        for a cochain complex their transposes."""
        if self.raising:
            return tuple(d.transpose() for d in self.boundaries)
        return self.boundaries

    def degree_range(self) -> tuple[int, ...]:
        """The degrees with both adjacent maps stored."""
        return tuple(range(self.offset, self.offset + len(self.boundaries)))

    def _index(self, k: int) -> int:
        """k - offset, for a degree k with both adjacent maps stored."""
        i = k - self.offset
        if not 0 <= i < len(self.boundaries):
            raise ValueError(f"degree {k} lacks an adjacent map; the complex reports only "
                             f"degrees {self.degree_range()}")
        return i

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        """rank boundaries[i] for every i, bottom-up.  The pivot columns P
        of the map below are independent columns of it, so no nonzero vector
        on P is a cycle: dropping the rows P keeps the rank of the next map,
        whose image lies in the cycles, and leaves only the rows that do
        not reduce to zero."""
        out, pinned = [], set()
        for d in self.boundaries:
            kept = tuple(row for i, row in enumerate(d.int_rows) if i not in pinned)
            pivots: list[int] = []
            out.append(rank(_matrix(len(kept), d.cols, kept), pivots))
            pinned = set(pivots)
        return tuple(out)

    def homology(self, k: int) -> int:
        i = self._index(k)
        return self.dims[i] - self.ranks[i] - (self.ranks[i - 1] if i else 0)

    def betti(self) -> tuple[int, ...]:
        return tuple(self.homology(k) for k in self.degree_range())

    def cycle_space(self, k: int) -> Subspace:
        """The kernel of the map out of degree k: boundaries[i-1] of a chain
        complex, none at its lowest degree, diffs[i] of a cochain one."""
        i = self._index(k)
        j = i if self.raising else i - 1
        return Subspace.full(self.dims[i]) if j < 0 else kernel_basis(self.diffs[j])

    def boundary_space(self, k: int) -> Subspace:
        """The image of the map into degree k: boundaries[i] of a chain
        complex, diffs[i-1] of a cochain one, none at its lowest degree."""
        i = self._index(k)
        j = i - self.raising
        return Subspace.zero(self.dims[i]) if j < 0 else column_span(self.diffs[j])


def _complex(dims: list[int], boundaries, raising: bool) -> ChainComplex:
    """ChainComplex in degrees 0..len(dims)-1 from the boundaries
    C_n -> C_{n-1}, n = 1, 2, ..., stored as written; raising=True flags
    the dual cochain complex.  dims is empty only for a negative n_max,
    which is refused."""
    if not dims:
        raise ValueError("n_max must be nonnegative")
    return ChainComplex(0, tuple(dims), tuple(boundaries), raising=raising)


def _block_transpose(t: Matrix, m: int, sign: int = 1) -> Matrix:
    """sign times the action table t of g x m -> m with each block
    transposed: column a*m + u of the result holds row u of the columns
    a*m + u2 of t."""
    cols = tuple(_canon(den, [(c - a * m, sign * x) for c, x in row if c // m == a])
                 for a in range(t.cols // m if m else 0) for den, row in t.int_rows)
    return _matrix(t.cols, m, cols).transpose()


def _require_left(g: LeibnizAlgebra) -> None:
    if g.convention != "left":
        raise ValueError("chain complexes expect the left convention; use opposite() first")


# ---------------------------------------------------------------------------
# coefficient systems


class TrivialCoefficients(_Frozen):
    __match_args__ = ("dim",)

    def __init__(self, dim: int = 1):
        if not isinstance(dim, int) or dim < 1:
            raise ValueError(f"coefficient dimension must be a positive int, got {dim!r}")
        self.__dict__["dim"] = dim


# a LieModule acts on the Lie algebra itself in the classical complexes (dgcat) and
# through the maximal Lie quotient of g in the others: [x,m] = pr(x).m
Coefficients = TrivialCoefficients | LieModule | Representation


def trivial_coefficients(dim: int = 1) -> TrivialCoefficients:
    return TrivialCoefficients(dim)


def _lie_action(over: LieAlgebra | LeibnizAlgebra, coefficients: Coefficients
                ) -> tuple[int, Matrix | None]:
    """(m_dim, the action table, None for trivial coefficients or a zero action)
    of trivial or Lie-module coefficients over the Lie algebra over, or over
    the maximal Lie quotient of a Leibniz algebra, which only a module reads."""
    if isinstance(coefficients, TrivialCoefficients):
        return coefficients.dim, None
    if isinstance(coefficients, Representation):
        raise UnsupportedCoefficients(
            "enveloping-algebra complexes take trivial or Lie-module coefficients")
    if not isinstance(coefficients, LieModule):
        raise TypeError(f"unknown coefficient system {coefficients!r}")
    h = over if isinstance(over, LieAlgebra) else over.quotient_data.quotient
    _check_width(coefficients, h.dim)
    return coefficients.dim, None if coefficients.action.is_zero() else coefficients.action


def _rep_tables(g: LeibnizAlgebra, rep: Representation) -> tuple[Matrix, Matrix]:
    """The tables of [x,m] and [m,x], both laid out as g x m -> m: column
    x*m_dim + u holds [e_x, f_u] and [f_u, e_x]."""
    left, right = _actions(g, rep)
    return left, right @ _swap(g.dim, rep.dim)


def _dual(g: LeibnizAlgebra | LieAlgebra, coefficients: Coefficients) -> Coefficients:
    """The dual module m*, whose chain complex is the transposed cochain
    complex of m: the same object for trivial coefficients and a zero
    action, the contragredient a.f = -f o a of a Lie module, and for a
    representation left' = -L^T, right' = R^T + L^T (block transposes)."""
    if isinstance(coefficients, Representation):
        m = coefficients.dim
        left, right = _rep_tables(g, coefficients)
        return Representation(m, coefficients.basis_names, _block_transpose(left, m, -1),
                              _block_transpose(_lincomb((1, right), (1, left)), m)
                              @ _swap(m, g.dim))
    m, action = _lie_action(g, coefficients)
    return coefficients if action is None else LieModule(m, _block_transpose(action, m, -1))


def _slot_actions(g: LeibnizAlgebra, coefficients: Coefficients, rule: str | None = None):
    """(m_dim, [first, later]) for the boundary builder, the tables of the
    chain actions g x m -> m of the j = 1 and j >= 2 slots; no tables for
    trivial coefficients or a zero action.  A Lie module acts as its lift
    [m, x] = -pr(x).m under the "right" rule in both; rule replaces the
    pinned two-sided one."""
    if isinstance(coefficients, Representation):
        left, right = _rep_tables(g, coefficients)
        # p [x,m] + q [m,x] at column x*m_dim + u
        return coefficients.dim, [_lincomb((p, left), (q, right))
                                  for p, q in CHAIN_RULES[rule or REP_CHAIN_RULE]]
    m_dim, action = _lie_action(g, coefficients)
    if action is None:
        return m_dim, []
    minus = _lincomb((-1, _actions(g, coefficients)[0]))
    return m_dim, [minus, minus]


def _product_boundaries(g: LeibnizAlgebra, n_max: int, m_dim: int = 1, actions=()):
    """The matrices d_n: m (x) g^{(x)n} -> m (x) g^{(x)n-1} for
    n = 1..n_max, on words in itertools.product order with module block u
    at u d^n, by the last-letter recursion of the module docstring.
    actions is [first, later] from _slot_actions, or empty."""
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
    # the rows of d_{n-1}, their nonzero (col, int over den) pairs sorted
    prev: list[list[tuple[int, int]]] = []
    for n in range(1, n_max + 1):
        rows, cols = d ** (n - 1), d ** n
        sign = -1 if n % 2 else 1
        # the slots j < n: d_{n-1} (x) id, one copy per last letter x
        acc = ([{c * d + x: v for c, v in row} for row in prev for x in range(d)] if n > 1
               else [{} for _ in range(m_dim)])
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
                                row = acc[r0 + p + delta]
                                row[col] = row.get(col, 0) + v
        if actions:
            for x, u, vec in actions[n > 1]:
                c0 = u * cols + x
                for u2, c in vec:
                    r0, v = u2 * rows, -sign * c
                    for p in range(rows):
                        row, col = acc[r0 + p], c0 + p * d
                        row[col] = row.get(col, 0) + v
        prev = [sorted(item for item in row.items() if item[1]) for row in acc]
        yield _matrix(m_dim * rows, m_dim * cols, tuple(_canon(den, row) for row in prev))


def _loday(g: LeibnizAlgebra, coefficients: Coefficients, n_max: int, raising: bool,
           rule: str | None = None) -> ChainComplex:
    """The tensor-module chain complex, or for raising=True the transposed
    chain complex of the dual module; rule replaces the pinned two-sided
    chain rule, on the dual module for raising=True."""
    m_dim, actions = _slot_actions(g, _dual(g, coefficients) if raising else coefficients, rule)
    dims = [m_dim * g.dim ** n for n in range(n_max + 1)]
    return _complex(dims, _product_boundaries(g, n_max, m_dim, actions), raising)


def loday_complex(g: LeibnizAlgebra, coefficients: Coefficients, n_max: int,
                  _rep_rule: str | None = None) -> ChainComplex:
    """Tensor-module chain complex m (x) g^{(x)n} in degrees 0..n_max; like
    every ChainComplex it reports homology in degrees 0..n_max-1."""
    _require_left(g)
    return _loday(g, coefficients, n_max, False, _rep_rule)


def loday_cochain_complex(g: LeibnizAlgebra, coefficients: Coefficients, n_max: int,
                          _rep_rule: str | None = None) -> ChainComplex:
    """Cochain complex Hom(g^{(x)n}, m) in degrees 0..n_max: the transposed
    chain complex of the dual module _dual(g, m), built under the chain
    rule _rep_rule (a CHAIN_RULES name) for two-sided coefficients."""
    _require_left(g)
    return _loday(g, coefficients, n_max, True, _rep_rule)


# ---------------------------------------------------------------------------
# complexes from the enveloping DGLA


class CEData(_Record):
    """The normal monomials mons[n] of degrees 0..n_max and the boundary
    terms[n][i] of mons[n][i], listed once for every complex and map
    built from them (see _monomial_complex), for an m_dim-dim coefficient
    module and any action on it."""

    __match_args__ = ("g", "pbw", "m_dim", "mons", "terms")

    def __init__(self, g: LeibnizAlgebra, pbw: PBWAlgebra, m_dim: int, mons: list[list[Word]],
                 terms: list[list[tuple]]):
        self.g = g
        self.pbw = pbw
        self.m_dim = m_dim
        self.mons = mons
        self.terms = terms


def _ce_setup(g: LeibnizAlgebra, coefficients: Coefficients, n_max: int) -> CEData:
    _require_left(g)
    m_dim, _ = _lie_action(g, coefficients)
    envelope = minimal_envelope(g)
    pbw = PBWAlgebra(envelope)
    columns = [envelope.differential(deg).transpose().int_rows for deg in (1, 2)]
    den = lcm(*(cd for cols in columns for cd, _ in cols))
    images = {deg: [[((deg - 1, a), x * (den // cd)) for a, x in col] for cd, col in cols]
              for deg, cols in zip((1, 2), columns)}
    mons = [_ce_monomials(envelope, n) for n in range(n_max + 1)]
    forms = [[pbw.normal_form(_derive_word(images, w), den) for w in ws] for ws in mons]
    # a leading degree-0 letter acts on the coefficient as m.xi = -xi.m
    terms = [[(d, [(w2[0][1], w2[1:], -c) if w2 and w2[0][0] == 0 else (None, w2, c)
                   for w2, c in nf.items()]) for nf, d in fs] for fs in forms]
    return CEData(g, pbw, m_dim, mons, terms)


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
    images[deg][idx] lists the nonzero (letter, int c) terms of the
    differential of the letter (deg, idx)."""
    out: Poly = {}
    sign = 1
    for t, (deg, idx) in enumerate(word):
        for letter, c in images[deg][idx]:
            add_into(out, word[:t] + (letter,) + word[t + 1:], sign * c)
        if deg % 2:
            sign = -sign
    return out


def _monomial_complex(mons: list[list], terms: list[list[tuple]], action: Matrix | None, m: int,
                      raising: bool) -> ChainComplex:
    """m (x) span(mons[n]) in degrees 0..len(mons)-1.  terms[n][i] = (den,
    wterms) lists the boundary of the monomial mons[n][i] as (letter,
    target, c) terms with int c over den: c target when letter is None,
    else c target with the letter acting on the coefficient through the
    table action (None for the zero action, which drops them)."""
    index = [{w: i for i, w in enumerate(ws)} for ws in mons]
    columns = () if action is None else action.transpose().int_rows
    act_den = lcm(*(ad for ad, _ in columns))
    # the terms of letter l acting on f_u at (l, u), those of no letter at (None, u)
    acts = {(c // m, c % m): [(u2, x * (act_den // ad)) for u2, x in col]
            for c, (ad, col) in enumerate(columns)}
    acts.update({(None, u): ((u, act_den),) for u in range(m)})

    def boundary(n: int) -> Matrix:
        rows_w, cols_w = len(mons[n - 1]), len(mons[n])
        den = lcm(*(d for d, _ in terms[n]))
        acc: list[dict[int, int]] = [{} for _ in range(m * rows_w)]
        for widx, (d, wterms) in enumerate(terms[n]):
            for letter, target, c in wterms:
                r, c = index[n - 1][target], c * (den // d)
                for u in range(m):
                    for u2, x in acts.get((letter, u), ()):
                        row, col = acc[u2 * rows_w + r], u * cols_w + widx
                        row[col] = row.get(col, 0) + c * x
        return _matrix(m * rows_w, m * cols_w, tuple(
            _canon(den * act_den, sorted(item for item in row.items() if item[1])) for row in acc))

    dims = [m * len(ws) for ws in mons]
    return _complex(dims, (boundary(n) for n in range(1, len(mons))), raising)


def ce_chain(g: LeibnizAlgebra, coefficients: Coefficients, n_max: int) -> ChainComplex:
    """Chain complex m (x) (normal monomials of degree n) in degrees 0..n_max.

    The boundary applies the envelope differential as a graded derivation,
    normalizes, and folds a leading degree-0 letter onto the coefficient
    as m.xi = -xi.m (dropped entirely for trivial coefficients).
    """
    data = _ce_setup(g, coefficients, n_max)
    _, action = _lie_action(g, coefficients)
    return _monomial_complex(data.mons, data.terms, action, data.m_dim, raising=False)


def ce_cochain(g: LeibnizAlgebra, coefficients: Coefficients, n_max: int) -> ChainComplex:
    """Cochain complex Hom(normal monomials, m): the transposed chain
    complex of the contragredient module."""
    data = _ce_setup(g, coefficients, n_max)
    _, action = _lie_action(g, _dual(g, coefficients))
    return _monomial_complex(data.mons, data.terms, action, data.m_dim, raising=True)


# ---------------------------------------------------------------------------
# comparison: projection from the tensor-module complex onto the small one


def _projection_blocks(data: CEData) -> list[Matrix]:
    """p_n: g^{(x)n} -> span of normal degree-n monomials, the normal form of
    the product of degree-1 letters.  nf is linear and the relations ideal
    two-sided, so nf(w x) = nf(nf(w) x) gives p_n = M_n (p_{n-1} (x) id), with
    nf(mons[n-1][i] x) in column i*d + x of M_n: word w x has index w*d + x."""
    d = data.g.dim
    out = [Matrix.identity(1)]
    for n in range(1, len(data.mons)):
        index = {w: i for i, w in enumerate(data.mons[n])}
        forms = [data.pbw.normal_form({w + ((1, x),): 1}) for w in data.mons[n - 1]
                 for x in range(d)]
        # the columns of M_n, each over the denominator of its normal form
        cols = tuple(_canon(den, sorted((index[v], c) for v, c in nf.items())) for nf, den in forms)
        out.append(_matrix(len(cols), len(index), cols).transpose()
                   @ _kron(out[-1], Matrix.identity(d)))
    return out


def _induced_rank(src: ChainComplex, dst: ChainComplex, f_k: Matrix, k: int) -> int:
    """Rank of the map on homology at degree k induced by a chain map
    component f_k: dim(f_k(Z_k) + B'_k) - dim B'_k, where Z_k are the
    cycles of src and B'_k the boundaries of dst (f_k(B_k) lies in B'_k)."""
    cols = (f_k @ src.cycle_space(k).basis).transpose().int_rows
    i = dst._index(k) - dst.raising
    if i < 0:
        return rank(_matrix(len(cols), f_k.rows, cols))
    # the columns of the map into degree k: the rows of a cochain target's
    # boundaries[i], the columns of a chain target's
    d = dst.boundaries[i]
    cols += d.int_rows if dst.raising else d.transpose().int_rows
    return rank(_matrix(len(cols), f_k.rows, cols)) - dst.ranks[i]


class ComparisonReport(_Frozen):
    """The four complexes' homology and the induced maps' ranks in the
    degrees reported; a verdict is None when its degree is not reported."""

    __match_args__ = ("degrees", "loday_homology", "ce_homology", "loday_cohomology",
                      "ce_cohomology", "chain_map_ranks", "cochain_map_ranks", "h0_iso",
                      "h1_iso", "hl2_to_h2_surjective", "h2_to_hl2_injective")

    def __init__(self, degrees: tuple[int, ...], loday_homology: tuple[int, ...],
                 ce_homology: tuple[int, ...], loday_cohomology: tuple[int, ...],
                 ce_cohomology: tuple[int, ...], chain_map_ranks: tuple[int, ...],
                 cochain_map_ranks: tuple[int, ...], h0_iso: bool | None, h1_iso: bool | None,
                 hl2_to_h2_surjective: bool | None, h2_to_hl2_injective: bool | None):
        self.__dict__.update(
            degrees=degrees, loday_homology=loday_homology, ce_homology=ce_homology,
            loday_cohomology=loday_cohomology, ce_cohomology=ce_cohomology,
            chain_map_ranks=chain_map_ranks, cochain_map_ranks=cochain_map_ranks,
            h0_iso=h0_iso, h1_iso=h1_iso, hl2_to_h2_surjective=hl2_to_h2_surjective,
            h2_to_hl2_injective=h2_to_hl2_injective)


def ce_projection(g: LeibnizAlgebra, coefficients: Coefficients, n_max: int
                  ) -> tuple[tuple[Matrix, ...], tuple[Matrix, ...], ComparisonReport]:
    """Chain maps P from the tensor-module complex onto the small complex,
    the dual cochain maps Q = P^T, and the comparison up to n_max - 1.

    The cochain complexes are the transposed chain complexes of m* and P
    does not read the action, so Q is a cochain map exactly when P is a
    chain map with coefficients in m*, and both induce maps of one rank:
    the cochain half is the chain half run on m*, once more unless m* = m.
    Raises NotAChainMap when P fails to commute with either boundary.
    """
    data = _ce_setup(g, coefficients, n_max)
    P = [_kron(Matrix.identity(data.m_dim), b) for b in _projection_blocks(data)]

    def chain_half(coeffs: Coefficients):
        """The Betti numbers of both complexes and the ranks P induces."""
        lod = _loday(g, coeffs, n_max, False)
        ce = _monomial_complex(data.mons, data.terms, _lie_action(g, coeffs)[1], data.m_dim,
                               raising=False)
        for n in range(1, n_max + 1):
            if P[n - 1] @ lod.boundaries[n - 1] != ce.boundaries[n - 1] @ P[n]:
                raise NotAChainMap(f"projection fails to commute with the boundary at degree {n}")
        return lod.betti(), ce.betti(), tuple(_induced_rank(lod, ce, P[k], k)
                                              for k in lod.degree_range())

    dual = _dual(g, coefficients)
    lod_b, ce_b, chain_ranks = homology = chain_half(coefficients)
    lodco_b, ceco_b, cochain_ranks = homology if dual is coefficients else chain_half(dual)
    degrees = tuple(range(len(lod_b)))

    def iso(k: int) -> bool | None:
        if k not in degrees:
            return None
        return (lod_b[k] == ce_b[k] == chain_ranks[k]
                and ceco_b[k] == lodco_b[k] == cochain_ranks[k])

    h2 = 2 in degrees
    report = ComparisonReport(
        degrees=degrees,
        loday_homology=lod_b,
        ce_homology=ce_b,
        loday_cohomology=lodco_b,
        ce_cohomology=ceco_b,
        chain_map_ranks=chain_ranks,
        cochain_map_ranks=cochain_ranks,
        h0_iso=iso(0),
        h1_iso=iso(1),
        hl2_to_h2_surjective=chain_ranks[2] == ce_b[2] if h2 else None,
        h2_to_hl2_injective=cochain_ranks[2] == ceco_b[2] if h2 else None,
    )
    return tuple(P), tuple(p.transpose() for p in P), report


# ---------------------------------------------------------------------------
# the left-normed graded-commutator subcomplex


def _tensor_boundary(words: list[tuple], index: dict[tuple, int], left_normed) -> Matrix:
    """The trivial-coefficient d: T^n -> T^{n-1}, from the source words of
    T^n, all of length n, to the target words of T^{n-1}, numbered by
    index, as its transpose: row k is d of words[k] over the targets.
    left_normed(b) lists the (t, c) int terms of lambda(b), so that the
    letter a (x) t has coefficient c in the free bracket [b, a]."""
    rows = []
    for word in words:
        acc: dict[int, int] = {}
        for j in range(2, len(word) + 1):
            sj = -1 if j % 2 else 1
            terms, rest = left_normed(word[j - 1]), word[j:]
            for i in range(1, j):
                head, a, tail = word[:i - 1], word[i - 1], word[i:j - 1] + rest
                for t, c in terms:
                    r = index[head + (a + t,) + tail]
                    acc[r] = acc.get(r, 0) + sj * c
        rows.append((1, tuple(sorted(item for item in acc.items() if item[1]))))
    return _matrix(len(words), len(index), tuple(rows))


def _restrict(dt: Matrix, source: list, target: list) -> Matrix:
    """The matrix of d, given by its transpose dt, between the bases source
    and target, rows of a forward echelon form in any order of their leads:
    v = D d b, D the lcm of the denominators of dt, is reduced by v <- a v
    - m t against the target rows t whose leads it meets, in lead order;
    the m over D times the a are the coordinates of the source row b, and
    a nonzero remainder raises NotInvariant."""
    den = lcm(*(cd for cd, _ in dt.int_rows))
    columns = [row if cd == den else [(r, x * (den // cd)) for r, x in row]
               for cd, row in dt.int_rows]
    pos = {t[0][0]: i for i, t in enumerate(target)}
    out = []
    for b in source:
        v: dict[int, int] = {}
        for k, x in b:
            for r, y in columns[k]:
                v[r] = v.get(r, 0) + x * y
        scale, coords, todo = den, [], sorted((r for r in v if r in pos), reverse=True)
        while todo:
            # the least lead met; a row with a later lead is 0 at it, so it
            # does not come back
            lead = todo.pop()
            i = pos[lead]
            t, x = target[i], v[lead]
            if x:
                a = t[0][1]
                g = gcd(a, x)
                if g != a:
                    a //= g
                    scale, coords = scale * a, [(j, y * a) for j, y in coords]
                    v = {r: y * a for r, y in v.items()}
                m, met = x // g, []
                # the whole of t: v is left 0 at the lead
                for r, y in t:
                    if r not in v and r in pos:
                        met.append(r)
                    v[r] = v.get(r, 0) - m * y
                if met:
                    todo = sorted(todo + met, reverse=True)
                coords.append((i, m))
        if any(v.values()):
            raise NotInvariant("d maps the source span outside the target span")
        out.append(_canon(scale, sorted(coords)))
    return _matrix(len(source), len(target), tuple(out)).transpose()


def _commutator_complex(bases: list[list], transposes, offset: int) -> ChainComplex:
    """Restriction of the transposed ambient boundaries, one per adjacent
    pair of blocks, to the bases of the blocks, one per degree from offset up."""
    return ChainComplex(offset, tuple(map(len, bases)),
                        tuple(_restrict(dt, src, dst)
                              for dt, src, dst in zip(transposes, bases[1:], bases)))


def fg_subcomplex(g: LeibnizAlgebra, n_max: int) -> ChainComplex:
    """Restriction of the trivial-coefficient boundary to the spans of
    left-normed graded commutators inside each tensor power.

    Raises NotInvariant (from _restrict) if a boundary were to leave the
    span, which does not happen for genuine Leibniz brackets.
    """
    _require_left(g)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    # with every letter of weight 1 the blocks (n, (n,)) are in product order
    spans = CommutatorSpans(lambda v: range(g.dim) if v == (1,) else ())
    return _commutator_complex([spans.basis(n, (n,)) for n in range(n_max + 1)],
                               (d.transpose() for d in _product_boundaries(g, n_max)), 0)


def fg_weight_complex(fl: FreeLeibnizTruncation, c: int | tuple[int, ...]) -> ChainComplex:
    """Block c, a weight w or a letter content of weight w (the count of
    each generator in a word), of the free graded-commutator subcomplex,
    reporting degrees 1..w; the blocks of one fl share fl.spans.  It
    stores the zero block (w+1, c) on top, as no word of w+1 letters has
    weight w."""
    grade = (c,) if isinstance(c, int) else tuple(c)
    w = sum(grade)
    if (not (isinstance(c, int) or len(grade) == fl.num_generators) or min(grade) < 0
            or not 1 <= w <= fl.max_weight):
        raise ValueError(f"{c!r} is neither a weight nor a letter content on "
                         f"{fl.num_generators} generator(s) in the truncation 1..{fl.max_weight}")
    c, spans = grade, fl.spans
    boundaries = (_tensor_boundary(spans.words(n, c), spans.index(n - 1, c), fl._left_normed)
                  for n in range(2, w + 2))
    # each basis in decreasing lead order, in which the rank sweep on the
    # restricted maps eliminates far less than in increasing order
    return _commutator_complex([spans.basis(n, c)[::-1] for n in range(1, w + 2)], boundaries, 1)


DEFAULT_WEIGHT_BUDGET = {1: 14, 2: 7}
FALLBACK_WEIGHT_BUDGET = 6


def weight_budget(num_generators: int) -> int:
    """The largest weight conjecture_check runs by default on that many generators."""
    return DEFAULT_WEIGHT_BUDGET.get(num_generators, FALLBACK_WEIGHT_BUDGET)


class WeightVerdict(_Frozen):
    __match_args__ = ("weight", "h1", "expected_h1", "higher")

    def __init__(self, weight: int, h1: int, expected_h1: int, higher: tuple[int, ...]):
        self.__dict__.update(weight=weight, h1=h1, expected_h1=expected_h1, higher=higher)

    @property
    def ok(self) -> bool:
        return self.h1 == self.expected_h1 and all(h == 0 for h in self.higher)


class ConjectureReport(_Frozen):
    __match_args__ = ("num_generators", "max_weight", "weights")

    def __init__(self, num_generators: int, max_weight: int,
                 weights: tuple[WeightVerdict, ...]):
        self.__dict__.update(num_generators=num_generators, max_weight=max_weight,
                             weights=weights)

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
        max_weight = weight_budget(num_generators)
    fl = FreeLeibnizTruncation(num_generators, max_weight)
    verdicts = []
    for w in range(1, max_weight + 1):
        # the weight block is the sum of its content blocks, and renaming
        # the generators carries a content block onto the rest of its orbit
        blocks = [(size, fg_weight_complex(fl, c).betti())
                  for c, size in content_orbits(num_generators, w)]
        betti = [sum(size * b[k] for size, b in blocks) for k in range(w)]
        verdicts.append(WeightVerdict(w, betti[0], witt_dim(num_generators, w),
                                      tuple(betti[1:])))
    return ConjectureReport(num_generators, max_weight, tuple(verdicts))
