"""Exact linear algebra over the rationals.

A matrix is stored as integer rows: row i is (den, ((col, num), ...)),
the nonzero entries num/den in column order over one positive
denominator that shares no factor with all the nums.  That form is
canonical, so equality and hashing compare it directly, and products,
transposes and zero tests run on ints over the stored pairs only; the
(column, Fraction) pairs and a dense table of the entries are views
built on first use.  Bilinear maps are stored as matrices too (see
leibcore): the private _kron, _direct_sum, _swap and _lincomb build the
products and sums their identities are made of.
Subspace coordinates and restrictions are sparse products.  Rank,
kernels, solving and subspace bases all come from one sparse
fraction-free elimination (structured Gaussian elimination,
LaMacchia-Odlyzko 1990): rows are integer maps divided by their content,
pivots go in column order with the shortest row first, and an optional
back-substitution gives the reduced echelon form that canonical bases
are read from.  rank also hands back the pivot columns, which
ChainComplex.ranks reads.  Nothing here rounds, so
a homology dimension of 0 means 0, not "small".

All objects are immutable; operations return new values, which makes
everything safe to share between threads.  The cached views are pure
functions of the integer rows: they take no part in equality or hashing,
and building one twice gives the same value.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

Vec = tuple[Fraction, ...]
SparseRow = tuple[tuple[int, Fraction], ...]
IntRow = tuple[int, tuple[tuple[int, int], ...]]

ZERO = Fraction(0)

_SCALAR_RE = re.compile(r"^([+-]?[0-9]+)(?:/([0-9]+))?$")


class ExactLAError(Exception):
    """Base class for contract violations in exact linear algebra."""


class ShapeMismatch(ExactLAError):
    pass


class NotInvariant(ExactLAError):
    """A linear map does not preserve the claimed subspace."""


def _parse_ratio(text: str) -> tuple[int, int]:
    """(num, den), den > 0 and not reduced, of a literal "p" or "p/q"."""
    m = _SCALAR_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a rational literal: {text!r}")
    num, den = int(m[1]), int(m[2] or 1)
    if not den:
        raise ValueError(f"zero denominator in rational literal: {text!r}")
    return num, den


def parse_scalar(text: str) -> Fraction:
    """Parse a rational literal "p" or "p/q" (q > 0) into a Fraction."""
    return Fraction(*_parse_ratio(text))


def format_scalar(value: Fraction | int, den: int = 1) -> str:
    """Inverse of parse_scalar: the literal of value / den in lowest terms."""
    num, den = value.numerator, value.denominator * den
    g = gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


def add_into(acc: dict, key, value) -> None:
    """acc[key] += value in a sparse {key: coefficient} map of ints or
    Fractions, dropping the key when the sum cancels, so stored
    coefficients are never zero."""
    cur = acc.get(key, 0) + value
    if cur:
        acc[key] = cur
    else:
        acc.pop(key, None)


class _Record:
    """Base of the package's value classes, whose __init__ is written
    out, so that importing the package generates and compiles no code.
    A subclass lists its fields in __match_args__, which its repr and
    pattern matching read."""

    __match_args__: tuple[str, ...] = ()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"


class _Frozen(_Record):
    """A _Record whose fields are set once, through __dict__, by __init__;
    assigning or deleting an attribute afterwards raises AttributeError.
    The cached_property views still fill in, since they write __dict__
    directly."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")


class Matrix(_Frozen):
    """rows x cols rational matrix stored as canonical integer rows.

    int_rows[i] = (den, ((col, num), ...)) lists the nonzero entries
    num/den of row i sorted by column, with den > 0 and gcd(den, nums) = 1;
    every constructor builds that form, which equality and hashing
    compare.  Matrix(rows, cols, sparse_rows) takes the nonzero (col,
    value) pairs of every row, each column once, values any rationals.
    """

    __match_args__ = ("rows", "cols", "int_rows")

    def __init__(self, rows: int, cols: int,
                 sparse_rows: Sequence[Sequence[tuple[int, object]]]):
        if len(sparse_rows) != rows:
            raise ShapeMismatch(f"expected {rows} rows, got {len(sparse_rows)}")
        out = []
        for srow in sparse_rows:
            if len({j for j, _ in srow}) != len(srow):
                raise ShapeMismatch(f"repeated column in a row of a {rows}x{cols} matrix")
            pairs = []
            for j, x in srow:
                if not 0 <= j < cols:
                    raise ShapeMismatch(f"column outside a {rows}x{cols} matrix")
                x = _rational(x)
                if x:
                    pairs.append((j, x))
            pairs.sort()
            out.append(_int_row(pairs))
        self.__dict__.update(rows=rows, cols=cols, int_rows=tuple(out))

    def __eq__(self, other):
        if other.__class__ is not Matrix:
            return NotImplemented
        return (self.rows, self.cols, self.int_rows) == (other.rows, other.cols, other.int_rows)

    def __hash__(self):
        return hash((self.rows, self.cols, self.int_rows))

    @cached_property
    def sparse_rows(self) -> tuple[SparseRow, ...]:
        """The nonzero (col, Fraction) pairs of every row, built on first use."""
        return tuple(tuple((j, Fraction(x, den)) for j, x in row) for den, row in self.int_rows)

    @cached_property
    def entries(self) -> tuple[Vec, ...]:
        """Dense rows of Fractions, built on first use."""
        zero_row = (ZERO,) * self.cols
        dense = []
        for den, row in self.int_rows:
            out = list(zero_row)
            for j, x in row:
                out[j] = Fraction(x, den)
            dense.append(tuple(out))
        return tuple(dense)

    @staticmethod
    def from_entries(rows: int, cols: int, entries: dict[tuple[int, int], object],
                     den: int = 1) -> "Matrix":
        """Build from a sparse {(i, j): value} mapping, every value divided
        by den; absent entries are 0.  Int values with a common den build
        the integer rows without any Fraction."""
        if not den:
            raise ZeroDivisionError("from_entries with den=0")
        sparse: list[list[tuple[int, object]]] = [[] for _ in range(rows)]
        rational = False
        for (i, j), v in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ShapeMismatch(f"entry ({i}, {j}) outside a {rows}x{cols} matrix")
            if type(v) is not int:
                v = _rational(v)
                rational = True
            if v:
                sparse[i].append((j, v))
        for row in sparse:
            row.sort()
        if rational:
            return _matrix(rows, cols, tuple(_int_row(row, den) for row in sparse))
        return _matrix(rows, cols, tuple(_canon(den, row) for row in sparse))

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return _matrix(rows, cols, ((1, ()),) * rows)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return _matrix(n, n, tuple((1, ((i, 1),)) for i in range(n)))

    @staticmethod
    def from_rows(rows: Iterable[Iterable]) -> "Matrix":
        data = [tuple(row) for row in rows]
        ncols = len(data[0]) if data else 0
        for row in data:
            if len(row) != ncols:
                raise ShapeMismatch(f"ragged row: expected {ncols} columns, got {len(row)}")
        return Matrix(len(data), ncols, tuple(_nonzero(row) for row in data))

    def apply(self, v: Sequence[Fraction]) -> Vec:
        if len(v) != self.cols:
            raise ShapeMismatch(f"vector of length {len(v)} against {self.cols} columns")
        column = Matrix.from_entries(self.cols, 1, {(j, 0): x for j, x in enumerate(v)})
        return tuple(row[0] for row in (self @ column).entries)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        # row i of the product is sum_k a_ik/da * (row k of other)/db_k:
        # scale every term to the lcm of the db_k and add integers
        orows = other.int_rows
        dens = _denominators(orows)
        out = []
        for da, row in self.int_rows:
            den = 1 if dens is None else lcm(*[dens[k] for k, _ in row])
            acc: dict[int, int] = {}
            get = acc.get
            for k, a in row:
                db, orow = orows[k]
                if db != den:
                    a *= den // db
                for j, b in orow:
                    acc[j] = get(j, 0) + a * b
            pairs = [item for item in acc.items() if item[1]]
            pairs.sort()
            out.append(_canon(da * den, pairs))
        return _matrix(self.rows, other.cols, tuple(out))

    __matmul__ = mul

    def transpose(self) -> "Matrix":
        columns: list[list[tuple[int, int]]] = [[] for _ in range(self.cols)]
        for i, (_, row) in enumerate(self.int_rows):
            for j, x in row:
                columns[j].append((i, x))
        # column j holds x_ij/d_i: bring it to the lcm of those d_i
        dens = _denominators(self.int_rows)
        out = []
        for col in columns:
            if dens is None:
                out.append((1, tuple(col)))
            else:
                den = lcm(*[dens[i] for i, _ in col])
                out.append(_canon(den, [(i, x * (den // dens[i])) for i, x in col]))
        return _matrix(self.cols, self.rows, tuple(out))

    def is_zero(self) -> bool:
        return not any(row for _, row in self.int_rows)

    def rank(self) -> int:
        return rank(self)


def _matrix(rows: int, cols: int, int_rows: tuple[IntRow, ...]) -> Matrix:
    """A Matrix of rows already in the canonical integer form."""
    m = object.__new__(Matrix)
    m.__dict__.update(rows=rows, cols=cols, int_rows=int_rows)
    return m


def _kron(a: Matrix, b: Matrix) -> Matrix:
    """The Kronecker product a (x) b: row i*b.rows + k and column
    j*b.cols + l hold a_ij * b_kl."""
    rows = [_canon(da * db, [(j * b.cols + l, x * y) for j, x in ra for l, y in rb])
            for da, ra in a.int_rows for db, rb in b.int_rows]
    return _matrix(a.rows * b.rows, a.cols * b.cols, tuple(rows))


def _direct_sum(a: Matrix, b: Matrix) -> Matrix:
    """The block diagonal matrix a (+) b, b at rows a.rows.. and columns a.cols..."""
    shifted = tuple((den, tuple((a.cols + j, x) for j, x in row)) for den, row in b.int_rows)
    return _matrix(a.rows + b.rows, a.cols + b.cols, a.int_rows + shifted)


def _swap(a: int, b: int) -> Matrix:
    """The permutation k^a (x) k^b -> k^b (x) k^a, e_i (x) e_j -> e_j (x) e_i."""
    return _matrix(b * a, a * b, tuple((1, ((i * b + j, 1),)) for j in range(b) for i in range(a)))


def _lincomb(*terms: tuple[int, Matrix]) -> Matrix:
    """The sum of c * m over the (int c, Matrix m) terms, all of one shape."""
    rows, cols = terms[0][1].rows, terms[0][1].cols
    if any((m.rows, m.cols) != (rows, cols) for _, m in terms):
        raise ShapeMismatch("a linear combination of matrices of different shapes")
    out = []
    for i in range(rows):
        den = lcm(*[m.int_rows[i][0] for _, m in terms])
        acc: dict[int, int] = {}
        for c, m in terms:
            d, row = m.int_rows[i]
            for j, x in row:
                add_into(acc, j, c * x * (den // d))
        out.append(_canon(den, sorted(acc.items())))
    return _matrix(rows, cols, tuple(out))


def _denominators(int_rows: Sequence[IntRow]) -> list[int] | None:
    """The denominators of the rows, or None if every one is 1."""
    if all(den == 1 for den, _ in int_rows):
        return None
    return [den for den, _ in int_rows]


def _rational(x) -> int | Fraction:
    """x itself if it is an int or a Fraction, else Fraction(x); a float,
    whose binary value is rarely the number meant, raises TypeError."""
    if type(x) is int or type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError(f"exact scalars only: got the float {x!r}")
    return Fraction(x)


def _nonzero(values: Sequence[Fraction]) -> SparseRow:
    """The nonzero (index, value) pairs of a dense vector, each value read
    through _rational first, so a float zero is refused, not dropped."""
    return tuple((j, x) for j, x in enumerate(map(_rational, values)) if x)


def _canon(den: int, pairs: Sequence[tuple[int, int]]) -> IntRow:
    """The canonical row of the values num/den, from column-sorted pairs
    of nonzero int nums: divided by gcd(den, nums) with the sign in the
    nums."""
    if den == 1:
        return 1, tuple(pairs)
    g = gcd(den, *[x for _, x in pairs])
    if den < 0:
        g = -g
    if g == 1:
        return den, tuple(pairs)
    return den // g, tuple((j, x // g) for j, x in pairs)


def _int_row(pairs: Sequence[tuple[int, int | Fraction]], den: int = 1) -> IntRow:
    """The canonical row of the values x/den, from column-sorted pairs of
    nonzero ints or Fractions x (unsorted pairs give the right nums)."""
    d = lcm(*(x.denominator for _, x in pairs))
    return _canon(den * d, [(j, x.numerator * (d // x.denominator)) for j, x in pairs])


def _row(pairs: Iterable[tuple[int, object]]) -> dict[int, int]:
    """The (col, value) pairs, values any exact rationals (read through
    _rational), as a primitive integer row without zeros."""
    exact = [(j, x if type(x) is int else _rational(x)) for j, x in pairs]
    return _primitive(dict(_int_row([p for p in exact if p[1]])[1]))


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


def rank(m: Matrix, pivots: list[int] | None = None) -> int:
    """Rank by sparse fraction-free elimination (_echelon), forward only;
    the pivot columns, in _echelon's order, are appended to pivots if a
    list is given."""
    red = _echelon([_primitive(dict(row)) for _, row in m.int_rows], m.cols)
    if pivots is not None:
        pivots.extend(red)
    return len(red)


class Subspace(_Frozen):
    """A subspace of k^ambient_dim with a reduced column echelon basis.

    The reduced basis is canonical: two Subspace values are equal iff they
    are the same subspace.  basis has the identity pattern on the pivot
    rows, so coordinates of a member vector can be read off directly.
    """

    __match_args__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: Matrix, pivots: tuple[int, ...]):
        self.__dict__.update(ambient_dim=ambient_dim, basis=basis, pivots=pivots)

    def __eq__(self, other):
        if other.__class__ is not Subspace:
            return NotImplemented
        return ((self.ambient_dim, self.basis, self.pivots)
                == (other.ambient_dim, other.basis, other.pivots))

    def __hash__(self):
        return hash((self.ambient_dim, self.basis, self.pivots))

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
                            columns: Iterable[Sequence[tuple[int, object]]]) -> "Subspace":
        """The span of vectors given by their nonzero (index, value) pairs,
        each index once, values any exact rationals, as Matrix takes them."""
        rows = []
        for c in columns:
            if c and not all(0 <= i < ambient_dim for i, _ in c):
                raise ShapeMismatch(f"vector index outside ambient dimension {ambient_dim}")
            if len({i for i, _ in c}) != len(c):
                raise ShapeMismatch("repeated index in a vector")
            rows.append(_row(c))
        return _span(ambient_dim, rows)

    def column_coords(self, m: Matrix) -> Matrix | None:
        """Coordinates of the columns of m in the echelon basis, or None if
        some column lies outside: the rows of m at the pivots, kept only
        if the basis times them gives m back."""
        if m.rows != self.ambient_dim:
            raise ShapeMismatch(f"{m.rows}x{m.cols} matrix in ambient dimension {self.ambient_dim}")
        c = _matrix(self.dim, m.cols, tuple(m.int_rows[p] for p in self.pivots))
        return c if self.basis @ c == m else None

    def coords(self, v: Sequence[Fraction]) -> Vec | None:
        """Coordinates of v in the echelon basis, or None if v is outside."""
        if len(v) != self.ambient_dim:
            raise ShapeMismatch(f"vector of length {len(v)} in ambient dimension {self.ambient_dim}")
        c = self.column_coords(Matrix(1, self.ambient_dim, [_nonzero(v)]).transpose())
        return None if c is None else tuple(row[0] for row in c.entries)


def _span(ambient_dim: int, rows: Iterable[dict[int, int]]) -> Subspace:
    """The span of primitive integer rows, as a canonical Subspace."""
    red = _echelon(rows, ambient_dim, reduce=True)
    # the reduced rows over their pivot values are the basis columns
    columns = tuple(_canon(row[p], sorted(row.items())) for p, row in red.items())
    return Subspace(ambient_dim, _matrix(len(red), ambient_dim, columns).transpose(), tuple(red))


def quotient_projection(sub: Subspace) -> Matrix:
    """Canonical projection k^n -> k^(n-dim) with kernel exactly `sub`.

    Coordinates on the quotient are the ambient coordinates complementary
    to the pivot rows of the echelon basis.
    """
    rows = []
    for c in sub.complement:
        # e_c minus row c of the basis read at the pivots; den is also
        # the num at c, so the row stays canonical
        den, row = sub.basis.int_rows[c]
        rows.append((den, tuple(sorted([(c, den)] + [(sub.pivots[i], -x) for i, x in row]))))
    return _matrix(len(rows), sub.ambient_dim, tuple(rows))


def quotient_section(sub: Subspace) -> Matrix:
    """Right inverse of quotient_projection picking complementary coordinates."""
    comp = sub.complement
    rows: list[IntRow] = [(1, ())] * sub.ambient_dim
    for j, c in enumerate(comp):
        rows[c] = (1, ((j, 1),))
    return _matrix(sub.ambient_dim, len(comp), tuple(rows))


def kernel_basis(m: Matrix) -> Subspace:
    """Null space of m as a canonical Subspace of k^cols.

    Rows pivot at their last column, so a reduced row a*e_p + sum b_f*e_f
    has p above its free columns f, and e_f - sum (b_f / a) e_p, the kernel
    vector of f, starts at f and is 0 at the other free columns: these
    vectors are already the canonical basis."""
    red = _echelon([_primitive(dict(row)) for _, row in m.int_rows], m.cols,
                   last=True, reduce=True)
    free = [c for c in range(m.cols) if c not in red]
    index = {f: i for i, f in enumerate(free)}
    rows = tuple((1, ((index[c], 1),)) if c in index else
                 _canon(red[c][c], sorted((index[f], -x) for f, x in red[c].items() if f != c))
                 for c in range(m.cols))
    return Subspace(m.cols, _matrix(m.cols, len(free), rows), tuple(free))


def solve(a: Matrix, b: Sequence[Fraction]) -> Vec | None:
    """One solution of a x = b (free variables set to 0), or None."""
    if len(b) != a.rows:
        raise ShapeMismatch(f"rhs of length {len(b)} against {a.rows} rows")
    aug = [_row(srow + ((a.cols, x),)) for srow, x in zip(a.sparse_rows, b)]
    red = _echelon(aug, a.cols + 1, reduce=True)
    if a.cols in red:
        return None
    x = [ZERO] * a.cols
    for c, row in red.items():
        x[c] = Fraction(row.get(a.cols, 0), row[c])
    return tuple(x)


def column_span(m: Matrix) -> Subspace:
    return _span(m.rows, [_primitive(dict(row)) for _, row in m.transpose().int_rows])


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
