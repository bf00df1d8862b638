"""Exact linear algebra over the rationals.

Matrices keep dense rows of `fractions.Fraction` entries, and each one
builds, once and on first use, a sparse view with the nonzero
(column, value) pairs of every row.  Products, matrix-vector products
and zero tests run over those pairs only.  Ranks come from sparse
fraction-free elimination: every row is cleared of denominators and
divided by its content, and pivots follow the Markowitz rule of
structured Gaussian elimination (LaMacchia-Odlyzko 1990), the column
with the fewest entries and then its shortest row.  A matrix remembers
its rank, so a differential shared by two homology degrees is reduced
once.  Kernels, solving, subspace bases and membership tests use reduced
echelon forms in exact rational arithmetic.  Nothing here rounds, so a
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
from heapq import heapify, heappop, heappush
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
        """Every row as (den, ((col, num), ...)): the row is the integer
        pairs over the common denominator den of its entries."""
        out = []
        for srow in self.sparse_rows:
            den = lcm(*(x.denominator for _, x in srow))
            out.append((den, tuple((j, x.numerator * (den // x.denominator)) for j, x in srow)))
        return tuple(out)

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
        dv = lcm(*(b.denominator for b in v))
        w = [b.numerator * (dv // b.denominator) for b in v]
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


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """Divide a nonzero integer row by the gcd of its entries, in place."""
    g = gcd(*row.values())
    if g != 1:
        for j in row:
            row[j] //= g
    return row


def rank(m: Matrix) -> int:
    """Rank by sparse fraction-free elimination.

    Rows are integer {col: value} maps, cleared of denominators and kept
    primitive.  Each step pivots on the remaining column with the fewest
    entries (a min-heap with stale entries skipped on pop) and, inside
    it, the row with the fewest nonzeros; the other rows of that column
    become a*row - b*pivot_row with a/b in lowest terms.
    """
    rows = {i: _primitive(dict(row)) for i, (_, row) in enumerate(m._integer_rows) if row}
    col_rows: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            col_rows.setdefault(j, set()).add(i)
    heap = [(len(holders), j) for j, holders in col_rows.items()]
    heapify(heap)
    r = 0
    while heap:
        count, c = heappop(heap)
        holders = col_rows.get(c)
        if holders is None or len(holders) != count:
            continue
        del col_rows[c]
        if not holders:
            continue
        p = min(holders, key=lambda i: (len(rows[i]), i))
        prow = rows.pop(p)
        a = prow.pop(c)
        for j in prow:
            col = col_rows[j]
            col.discard(p)
            heappush(heap, (len(col), j))
        for i in holders:
            if i == p:
                continue
            row = rows[i]
            b = row.pop(c)
            g = gcd(a, b)
            fa, fb = a // g, b // g
            if fa != 1:
                for j in row:
                    row[j] *= fa
            for j, x in prow.items():
                y = row.get(j, 0) - fb * x
                col = col_rows[j]
                if y:
                    row[j] = y
                    if i not in col:
                        col.add(i)
                        heappush(heap, (len(col), j))
                else:
                    del row[j]
                    col.discard(i)
                    heappush(heap, (len(col), j))
            if row:
                _primitive(row)
            else:
                del rows[i]
        r += 1
    return r


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot column indices)."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ONE / rows[r][c]
        if inv != ONE:
            rows[r] = [x * inv for x in rows[r]]
        prow = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


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
        rows = [list(Fraction(x) for x in c) for c in columns]
        for row in rows:
            if len(row) != ambient_dim:
                raise ShapeMismatch(f"vector of length {len(row)} in ambient dimension {ambient_dim}")
        if not rows:
            return Subspace.zero(ambient_dim)
        red, pivots = _rref(rows)
        k = len(pivots)
        basis = Matrix(ambient_dim, k, tuple(tuple(red[j][i] for j in range(k)) for i in range(ambient_dim)))
        return Subspace(ambient_dim, basis, tuple(pivots))

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
    comp = sub.complement
    piv_index = {p: i for i, p in enumerate(sub.pivots)}
    n = sub.ambient_dim
    rows = []
    for c in comp:
        row = [ZERO] * n
        row[c] = ONE
        for p, i in piv_index.items():
            val = sub.basis.entries[c][i]
            if val:
                row[p] = -val
        rows.append(tuple(row))
    return Matrix(len(comp), n, tuple(rows))


def quotient_section(sub: Subspace) -> Matrix:
    """Right inverse of quotient_projection picking complementary coordinates."""
    comp = sub.complement
    n = sub.ambient_dim
    return Matrix.from_columns(n, [tuple(ONE if i == c else ZERO for i in range(n)) for c in comp])


def kernel_basis(m: Matrix) -> Subspace:
    """Null space of m as a canonical Subspace of k^cols."""
    red, pivots = _rref([list(r) for r in m.entries])
    pivset = set(pivots)
    free = [c for c in range(m.cols) if c not in pivset]
    cols = []
    for f in free:
        v = [ZERO] * m.cols
        v[f] = ONE
        for prow, pcol in enumerate(pivots):
            if red[prow][f]:
                v[pcol] = -red[prow][f]
        cols.append(tuple(v))
    return Subspace.from_spanning_columns(m.cols, cols)


def solve(a: Matrix, b: Sequence[Fraction]) -> Vec | None:
    """One solution of a x = b (free variables set to 0), or None."""
    if len(b) != a.rows:
        raise ShapeMismatch(f"rhs of length {len(b)} against {a.rows} rows")
    aug = [list(r) + [Fraction(b[i])] for i, r in enumerate(a.entries)]
    red, pivots = _rref(aug)
    if a.cols in pivots:
        return None
    x = [ZERO] * a.cols
    for prow, pcol in enumerate(pivots):
        x[pcol] = red[prow][a.cols]
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
