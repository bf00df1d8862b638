"""Exact linear algebra over the rationals.

A matrix is stored as its sparse rows: the nonzero (column, Fraction)
pairs of every row in column order.  That form is canonical, so equality
and hashing compare it directly; a dense view of the entries is built
only when a table or a test asks for it.  Products, matrix-vector
products and zero tests run over the stored pairs only, and subspace
coordinates and restrictions are sparse products.  Rank, kernels,
solving and subspace bases all come from one sparse fraction-free
elimination (structured Gaussian elimination, LaMacchia-Odlyzko 1990):
rows are integer maps cleared of denominators and divided by their
content, pivots go in column order with the shortest row first, and an
optional back-substitution gives the reduced echelon form that canonical
bases are read from.  A matrix remembers its rank, so a differential
shared by two homology degrees is reduced once.  Nothing here rounds, so
a homology dimension of 0 means 0, not "small".

All objects are immutable; operations return new values, which makes
everything safe to share between threads.  The cached views are pure
functions of the sparse rows: they take no part in equality or hashing,
and building one twice gives the same value.
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
    """rows x cols matrix of Fractions stored as sparse rows.

    sparse_rows[i] holds the nonzero (col, value) pairs of row i, sorted
    by column, every value a Fraction; the constructors below build that
    canonical form, which equality and hashing compare.
    """

    rows: int
    cols: int
    sparse_rows: tuple[SparseRow, ...]

    def __post_init__(self):
        if len(self.sparse_rows) != self.rows:
            raise ShapeMismatch(f"expected {self.rows} rows, got {len(self.sparse_rows)}")
        for srow in self.sparse_rows:
            if srow and not (0 <= srow[0][0] and srow[-1][0] < self.cols):
                raise ShapeMismatch(f"column outside a {self.rows}x{self.cols} matrix")

    @cached_property
    def entries(self) -> tuple[Vec, ...]:
        """Dense rows of Fractions, built on first use."""
        zero_row = (ZERO,) * self.cols
        dense = []
        for srow in self.sparse_rows:
            row = list(zero_row)
            for j, x in srow:
                row[j] = x
            dense.append(tuple(row))
        return tuple(dense)

    @cached_property
    def _integer_rows(self) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
        """Every row as (den, ((col, num), ...)), see _clear."""
        return tuple(map(_clear, self.sparse_rows))

    @cached_property
    def _rank(self) -> int:
        return rank(self)

    @staticmethod
    def from_entries(rows: int, cols: int, entries: dict[tuple[int, int], Fraction]) -> "Matrix":
        """Build from a sparse {(i, j): value} mapping; absent entries are 0."""
        sparse: list[list[tuple[int, Fraction]]] = [[] for _ in range(rows)]
        for (i, j), v in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ShapeMismatch(f"entry ({i}, {j}) outside a {rows}x{cols} matrix")
            if type(v) is not Fraction:
                v = Fraction(v)
            if v:
                sparse[i].append((j, v))
        return Matrix(rows, cols, tuple(tuple(sorted(r)) for r in sparse))

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, ((),) * rows)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple(((i, ONE),) for i in range(n)))

    @staticmethod
    def from_rows(rows: Iterable[Iterable]) -> "Matrix":
        data = [tuple(map(Fraction, row)) for row in rows]
        ncols = len(data[0]) if data else 0
        for row in data:
            if len(row) != ncols:
                raise ShapeMismatch(f"ragged row: expected {ncols} columns, got {len(row)}")
        return Matrix(len(data), ncols, tuple(_nonzero(row) for row in data))

    @staticmethod
    def from_columns(nrows: int, columns: Iterable[Sequence]) -> "Matrix":
        cols = [tuple(map(Fraction, c)) for c in columns]
        for c in cols:
            if len(c) != nrows:
                raise ShapeMismatch(f"column of length {len(c)}, expected {nrows}")
        return Matrix(len(cols), nrows, tuple(map(_nonzero, cols))).transpose()

    def column(self, j: int) -> Vec:
        return tuple(r[j] for r in self.entries)

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
        return Matrix(self.rows, other.cols, tuple(out))

    __matmul__ = mul

    def transpose(self) -> "Matrix":
        sparse: list[list[tuple[int, Fraction]]] = [[] for _ in range(self.cols)]
        for i, srow in enumerate(self.sparse_rows):
            for j, x in srow:
                sparse[j].append((i, x))
        return Matrix(self.cols, self.rows, tuple(map(tuple, sparse)))

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    def entries_dict(self) -> dict[tuple[int, int], Fraction]:
        return {(i, j): a for i, srow in enumerate(self.sparse_rows) for j, a in srow}

    def rank(self) -> int:
        """rank(self), computed once per matrix."""
        return self._rank


def _nonzero(values: Sequence[Fraction]) -> SparseRow:
    """The nonzero (index, value) pairs of a dense vector."""
    return tuple((j, x) for j, x in enumerate(values) if x)


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
        vectors = []
        for c in columns:
            if len(c) != ambient_dim:
                raise ShapeMismatch(f"vector of length {len(c)} in ambient dimension {ambient_dim}")
            vectors.append(_nonzero(c))
        return Subspace.from_sparse_columns(ambient_dim, vectors)

    @staticmethod
    def from_sparse_columns(ambient_dim: int,
                            columns: Iterable[Sequence[tuple[int, Fraction]]]) -> "Subspace":
        """The span of vectors given by their nonzero (index, value) pairs."""
        rows = []
        for c in columns:
            if c and not all(0 <= i < ambient_dim for i, _ in c):
                raise ShapeMismatch(f"vector index outside ambient dimension {ambient_dim}")
            rows.append(_row(c))
        # the reduced rows, scaled to 1 at their pivots, are the basis columns
        red = _echelon(rows, ambient_dim, reduce=True)
        sparse: list[list[tuple[int, Fraction]]] = [[] for _ in range(ambient_dim)]
        for k, (p, row) in enumerate(red.items()):
            for i, x in row.items():
                sparse[i].append((k, Fraction(x, row[p])))
        basis = Matrix(ambient_dim, len(red), tuple(map(tuple, sparse)))
        return Subspace(ambient_dim, basis, tuple(red))

    def column_coords(self, m: Matrix) -> Matrix | None:
        """Coordinates of the columns of m in the echelon basis, or None if
        some column lies outside: the rows of m at the pivots, kept only
        if the basis times them gives m back."""
        if m.rows != self.ambient_dim:
            raise ShapeMismatch(f"{m.rows}x{m.cols} matrix in ambient dimension {self.ambient_dim}")
        c = Matrix(self.dim, m.cols, tuple(m.sparse_rows[p] for p in self.pivots))
        return c if self.basis @ c == m else None

    def coords(self, v: Sequence[Fraction]) -> Vec | None:
        """Coordinates of v in the echelon basis, or None if v is outside."""
        c = self.column_coords(Matrix.from_columns(self.ambient_dim, [v]))
        return None if c is None else c.column(0)

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
    return Matrix(len(rows), sub.ambient_dim, rows)


def quotient_section(sub: Subspace) -> Matrix:
    """Right inverse of quotient_projection picking complementary coordinates."""
    comp = sub.complement
    rows: list[SparseRow] = [()] * sub.ambient_dim
    for j, c in enumerate(comp):
        rows[c] = ((j, ONE),)
    return Matrix(sub.ambient_dim, len(comp), tuple(rows))


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
    return Subspace(m.cols, Matrix(m.cols, len(free), tuple(sparse)), tuple(free))


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
    return Subspace.from_sparse_columns(m.rows, m.transpose().sparse_rows)


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
    coords = target.column_coords(f @ source.basis)
    if coords is None:
        raise NotInvariant("f maps the source subspace outside the target subspace")
    return coords
