"""Exact linear algebra over the rationals.

Matrices keep dense rows of `fractions.Fraction` entries, and each one
builds, once and on first use, a sparse view with the nonzero
(column, value) pairs of every row.  Products, matrix-vector products
and zero tests run over those pairs only.  Rank, kernels, solving and
subspace bases all come from one sparse fraction-free elimination
(structured Gaussian elimination, LaMacchia-Odlyzko 1990): rows are
integer maps cleared of denominators and divided by their content,
pivots go in column order with the shortest row first, and an optional
back-substitution gives the reduced echelon form that canonical bases
are read from.  A matrix remembers its rank, so a differential shared by
two homology degrees is reduced once.  Nothing here rounds, so a
homology dimension of 0 means 0, not "small".

All objects are immutable; operations return new values, which makes
everything safe to share between threads.  The cached views are pure
functions of the entries: they take no part in equality or hashing, and
building one twice gives the same value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
SparseRow = tuple[tuple[int, Fraction], ...]

ZERO = Fraction(0)
ONE = Fraction(1)

_SCALAR_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class ExactLAError(Exception):
    """Base class for contract violations in exact linear algebra."""


class ShapeMismatch(ExactLAError):
    pass


class CompositionNotZero(ExactLAError):
    """Two maps claimed to be consecutive differentials do not compose to zero."""


class NotInvariant(ExactLAError):
    """A linear map does not preserve the claimed subspace."""


def parse_scalar(text: str) -> Fraction:
    """Parse a rational literal "p" or "p/q" (q > 0) into a Fraction."""
    s = text.strip()
    if not _SCALAR_RE.match(s):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal: {text!r}") from None


def format_scalar(value: Fraction) -> str:
    """Inverse of parse_scalar; Fraction keeps denominators positive already."""
    return str(value)


def vector(values: Iterable) -> Vec:
    return tuple(Fraction(v) for v in values)


def zero_vector(n: int) -> Vec:
    return (ZERO,) * n


def add_vectors(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def sub_vectors(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def scale_vector(c: Fraction, v: Sequence[Fraction]) -> Vec:
    return tuple(c * a for a in v)


def is_zero_vector(v: Sequence[Fraction]) -> bool:
    return not any(v)


def add_into(acc: dict, key, value: Fraction) -> None:
    """acc[key] += value in a sparse {key: coefficient} map, dropping the
    key when the sum cancels, so stored coefficients are never zero."""
    cur = acc.get(key, ZERO) + value
    if cur:
        acc[key] = cur
    else:
        acc.pop(key, None)


@dataclass(frozen=True)
class Matrix:
    """Dense rows x cols matrix of Fractions, stored row-major, with a
    cached sparse view of its rows."""

    rows: int
    cols: int
    entries: tuple[Vec, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise ShapeMismatch(f"expected {self.rows} rows, got {len(self.entries)}")
        for r in self.entries:
            if len(r) != self.cols:
                raise ShapeMismatch(f"ragged row: expected {self.cols} columns")

    @cached_property
    def sparse_rows(self) -> tuple[SparseRow, ...]:
        """The nonzero (col, value) pairs of every row, in column order."""
        # most zeros are the shared ZERO, skipped without a Fraction call
        return tuple(tuple((j, x) for j, x in enumerate(row) if x is not ZERO and x)
                     for row in self.entries)

    @cached_property
    def _integer_rows(self) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
        """Every row as (den, ((col, num), ...)), see _clear."""
        return tuple(map(_clear, self.sparse_rows))

    @cached_property
    def _rank(self) -> int:
        return rank(self)

    @staticmethod
    def _from_sparse_rows(cols: int, sparse: tuple[SparseRow, ...]) -> "Matrix":
        """Densify rows of nonzero (col, value) pairs in column order,
        keeping them as the sparse view."""
        zero_row = (ZERO,) * cols
        dense = []
        for srow in sparse:
            if srow:
                row = list(zero_row)
                for j, x in srow:
                    row[j] = x
                dense.append(tuple(row))
            else:
                dense.append(zero_row)
        m = Matrix(len(sparse), cols, tuple(dense))
        m.__dict__["sparse_rows"] = sparse
        return m

    @staticmethod
    def from_entries(rows: int, cols: int, entries: dict[tuple[int, int], Fraction]) -> "Matrix":
        """Build from a sparse {(i, j): value} mapping; absent entries are 0."""
        sparse: list[list[tuple[int, Fraction]]] = [[] for _ in range(rows)]
        for (i, j), v in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ShapeMismatch(f"entry ({i}, {j}) outside a {rows}x{cols} matrix")
            v = Fraction(v)
            if v:
                sparse[i].append((j, v))
        return Matrix._from_sparse_rows(cols, tuple(tuple(sorted(r)) for r in sparse))

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, tuple((ZERO,) * cols for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)))

    @staticmethod
    def from_rows(rows: Iterable[Iterable]) -> "Matrix":
        data = tuple(tuple(Fraction(x) for x in row) for row in rows)
        nrows = len(data)
        ncols = len(data[0]) if data else 0
        return Matrix(nrows, ncols, data)

    @staticmethod
    def from_columns(nrows: int, columns: Iterable[Sequence]) -> "Matrix":
        cols = [tuple(Fraction(x) for x in c) for c in columns]
        for c in cols:
            if len(c) != nrows:
                raise ShapeMismatch(f"column of length {len(c)}, expected {nrows}")
        return Matrix(nrows, len(cols), tuple(tuple(c[i] for c in cols) for i in range(nrows)))

    def row(self, i: int) -> Vec:
        return self.entries[i]

    def column(self, j: int) -> Vec:
        return tuple(r[j] for r in self.entries)

    def columns(self) -> list[Vec]:
        return [self.column(j) for j in range(self.cols)]

    def apply(self, v: Sequence[Fraction]) -> Vec:
        if len(v) != self.cols:
            raise ShapeMismatch(f"vector of length {len(v)} against {self.cols} columns")
        dv, pairs = _clear(list(enumerate(v)))
        w = [x for _, x in pairs]
        out = []
        for den, row in self._integer_rows:
            acc = 0
            for j, a in row:
                acc += a * w[j]
            out.append(Fraction(acc, den * dv) if acc else ZERO)
        return tuple(out)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        # row i of the product is sum_k a_ik/da * (row k of other)/db_k:
        # scale every term to the lcm of the db_k and add integers
        orows = other._integer_rows
        out = []
        for da, row in self._integer_rows:
            den = lcm(*(orows[k][0] for k, _ in row))
            acc: dict[int, int] = {}
            for k, a in row:
                db, orow = orows[k]
                a *= den // db
                for j, b in orow:
                    acc[j] = acc.get(j, 0) + a * b
            den *= da
            out.append(tuple(sorted((j, Fraction(x, den)) for j, x in acc.items() if x)))
        return Matrix._from_sparse_rows(other.cols, tuple(out))

    __matmul__ = mul

    def scale(self, c) -> "Matrix":
        c = Fraction(c)
        return Matrix(self.rows, self.cols, tuple(tuple(c * a for a in r) for r in self.entries))

    def transpose(self) -> "Matrix":
        sparse: list[list[tuple[int, Fraction]]] = [[] for _ in range(self.cols)]
        for i, srow in enumerate(self.sparse_rows):
            for j, x in srow:
                sparse[j].append((i, x))
        return Matrix._from_sparse_rows(self.rows, tuple(map(tuple, sparse)))

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    def entries_dict(self) -> dict[tuple[int, int], Fraction]:
        return {(i, j): a for i, srow in enumerate(self.sparse_rows) for j, a in srow}

    def rank(self) -> int:
        """rank(self), computed once per matrix."""
        return self._rank


def _clear(pairs: Sequence[tuple[int, Fraction]]) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(den, ((col, num), ...)) with every value == num / den, den the lcm
    of the denominators (ints count as denominator 1)."""
    den = lcm(*(x.denominator for _, x in pairs))
    return den, tuple((j, x.numerator * (den // x.denominator)) for j, x in pairs)


def _row(pairs: Sequence[tuple[int, Fraction]]) -> dict[int, int]:
    """The (col, value) pairs as a primitive integer row without zeros."""
    return _primitive({j: x for j, x in _clear(pairs)[1] if x})


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """Divide an integer row by the gcd of its entries, in place."""
    g = gcd(*row.values())
    if g != 1:
        for j in row:
            row[j] //= g
    return row


def _eliminate(row: dict[int, int], prow: dict[int, int], c: int) -> None:
    """row <- a*row - b*prow with a/b = prow[c]/row[c] in lowest terms,
    which clears column c; the rest is made primitive, in place."""
    g = gcd(prow[c], row[c])
    fa, fb = prow[c] // g, row[c] // g
    if fa != 1:
        for j in row:
            row[j] *= fa
    for j, x in prow.items():
        y = row.get(j, 0) - fb * x
        if y:
            row[j] = y
        else:
            del row[j]
    _primitive(row)


def _echelon(rows: Iterable[dict[int, int]], ncols: int, last: bool = False,
             reduce: bool = False) -> dict[int, dict[int, int]]:
    """Sparse fraction-free echelon form of primitive integer rows.

    Each row pivots at its first column (its last one for last=True),
    columns are taken in that order, and of the rows sharing a pivot
    column the shortest is kept while the others are cleared there by it
    and move on to their next pivot.  Returns {pivot column: row} in the
    order the pivots were found; reduce=True also clears every pivot
    column from the other pivot rows.  The rows are reused, not copied.
    """
    lead = max if last else min
    pending: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        if row:
            pending.setdefault(lead(row), []).append(row)
    pivots: dict[int, dict[int, int]] = {}
    for c in reversed(range(ncols)) if last else range(ncols):
        group = pending.pop(c, None)
        if group is None:
            continue
        prow = pivots[c] = min(group, key=len)
        for row in group:
            if row is not prow:
                _eliminate(row, prow, c)
                if row:
                    pending.setdefault(lead(row), []).append(row)
    if reduce:
        # later pivot rows are already reduced, so clearing their pivots
        # brings in no other pivot column
        for c, row in reversed(pivots.items()):
            for p in [p for p in row if p != c and p in pivots]:
                _eliminate(row, pivots[p], p)
    return pivots


def rank(m: Matrix) -> int:
    """Rank by sparse fraction-free elimination (_echelon), forward only."""
    return len(_echelon([_primitive(dict(row)) for _, row in m._integer_rows], m.cols))


@dataclass(frozen=True)
class Subspace:
    """A subspace of k^ambient_dim with a reduced column echelon basis.

    The reduced basis is canonical: two Subspace values are equal iff they
    are the same subspace.  basis has the identity pattern on the pivot
    rows, so coordinates of a member vector can be read off directly.
    """

    ambient_dim: int
    basis: Matrix
    pivots: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def complement(self) -> tuple[int, ...]:
        pivset = set(self.pivots)
        return tuple(i for i in range(self.ambient_dim) if i not in pivset)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.zeros(ambient_dim, 0), ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(ambient_dim), tuple(range(ambient_dim)))

    @staticmethod
    def from_spanning_columns(ambient_dim: int, columns: Iterable[Sequence]) -> "Subspace":
        rows = []
        for c in columns:
            if len(c) != ambient_dim:
                raise ShapeMismatch(f"vector of length {len(c)} in ambient dimension {ambient_dim}")
            rows.append(_row([(i, Fraction(x)) for i, x in enumerate(c) if x]))
        # the reduced rows, scaled to 1 at their pivots, are the basis columns
        red = _echelon(rows, ambient_dim, reduce=True)
        sparse: list[list[tuple[int, Fraction]]] = [[] for _ in range(ambient_dim)]
        for k, (p, row) in enumerate(red.items()):
            for i, x in row.items():
                sparse[i].append((k, Fraction(x, row[p])))
        basis = Matrix._from_sparse_rows(len(red), tuple(map(tuple, sparse)))
        return Subspace(ambient_dim, basis, tuple(red))

    def coords(self, v: Sequence[Fraction]) -> Vec | None:
        """Coordinates of v in the echelon basis, or None if v is outside."""
        if len(v) != self.ambient_dim:
            raise ShapeMismatch(f"vector of length {len(v)} in ambient dimension {self.ambient_dim}")
        a = tuple(Fraction(v[p]) for p in self.pivots)
        recon = self.basis.apply(a)
        if all(x == Fraction(y) for x, y in zip(recon, v)):
            return a
        return None

    def contains(self, v: Sequence[Fraction]) -> bool:
        return self.coords(v) is not None


def quotient_projection(sub: Subspace) -> Matrix:
    """Canonical projection k^n -> k^(n-dim) with kernel exactly `sub`.

    Coordinates on the quotient are the ambient coordinates complementary
    to the pivot rows of the echelon basis.
    """
    basis_rows = sub.basis.sparse_rows
    rows = tuple(tuple(sorted([(c, ONE)] + [(sub.pivots[i], -x) for i, x in basis_rows[c]]))
                 for c in sub.complement)
    return Matrix._from_sparse_rows(sub.ambient_dim, rows)


def quotient_section(sub: Subspace) -> Matrix:
    """Right inverse of quotient_projection picking complementary coordinates."""
    comp = sub.complement
    n = sub.ambient_dim
    return Matrix.from_columns(n, [tuple(ONE if i == c else ZERO for i in range(n)) for c in comp])


def kernel_basis(m: Matrix) -> Subspace:
    """Null space of m as a canonical Subspace of k^cols.

    Rows pivot at their last column, so a reduced row a*e_p + sum b_f*e_f
    has p above its free columns f, and e_f - sum (b_f / a) e_p, the kernel
    vector of f, starts at f and is 0 at the other free columns: these
    vectors are already the canonical basis."""
    red = _echelon([_primitive(dict(row)) for _, row in m._integer_rows], m.cols,
                   last=True, reduce=True)
    free = [c for c in range(m.cols) if c not in red]
    index = {f: i for i, f in enumerate(free)}
    sparse = [((index[c], ONE),) if c in index else
              tuple(sorted((index[f], Fraction(-x, red[c][c]))
                           for f, x in red[c].items() if f != c))
              for c in range(m.cols)]
    return Subspace(m.cols, Matrix._from_sparse_rows(len(free), tuple(sparse)), tuple(free))


def solve(a: Matrix, b: Sequence[Fraction]) -> Vec | None:
    """One solution of a x = b (free variables set to 0), or None."""
    if len(b) != a.rows:
        raise ShapeMismatch(f"rhs of length {len(b)} against {a.rows} rows")
    aug = [_row(srow + ((a.cols, Fraction(x)),)) for srow, x in zip(a.sparse_rows, b)]
    red = _echelon(aug, a.cols + 1, reduce=True)
    if a.cols in red:
        return None
    x = [ZERO] * a.cols
    for c, row in red.items():
        x[c] = Fraction(row.get(a.cols, 0), row[c])
    return tuple(x)


def column_span(m: Matrix) -> Subspace:
    return Subspace.from_spanning_columns(m.rows, m.columns())


def homology_dimension(d_out: Matrix, d_in: Matrix) -> int:
    """dim ker(d_out) - rank(d_in) for consecutive differentials.

    d_out: C_n -> C_{n-1} and d_in: C_{n+1} -> C_n.  Raises
    CompositionNotZero unless d_out . d_in == 0, which keeps sign bugs
    from turning into silently wrong Betti numbers.
    """
    if d_out.cols != d_in.rows:
        raise ShapeMismatch(f"middle dimensions disagree: {d_out.cols} vs {d_in.rows}")
    if not d_out.mul(d_in).is_zero():
        raise CompositionNotZero("d_out . d_in is not zero")
    return (d_out.cols - d_out.rank()) - d_in.rank()


def restrict_map(f: Matrix, source: Subspace, target: Subspace) -> Matrix:
    """Matrix of f between subspace bases; NotInvariant if f leaves the target."""
    if f.cols != source.ambient_dim or f.rows != target.ambient_dim:
        raise ShapeMismatch(
            f"map {f.rows}x{f.cols} between ambient dims {source.ambient_dim} -> {target.ambient_dim}"
        )
    cols = []
    for i in range(source.dim):
        w = f.apply(source.basis.column(i))
        c = target.coords(w)
        if c is None:
            raise NotInvariant(f"image of source basis vector {i} is not in the target subspace")
        cols.append(c)
    return Matrix.from_columns(target.dim, cols)
