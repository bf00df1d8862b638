from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibhom.exactla import (
    Matrix,
    NotInvariant,
    ShapeMismatch,
    Subspace,
    column_span,
    format_scalar,
    kernel_basis,
    parse_scalar,
    quotient_projection,
    quotient_section,
    rank,
    restrict_map,
    solve,
)
from leibhom import homology
from leibhom.leibcore import LeibnizAlgebra, lie_quotient
from leibhom.homology import (
    ChainComplex,
    DifferentialSquareNonzero,
    _induced_rank,
    ce_projection,
    conjecture_check,
    fg_subcomplex,
    loday_complex,
    trivial_coefficients,
)

from conftest import CORPUS, basis_matrix, dense, quotient_adjoint_module, unimodular
from test_homology_loday import dense_rank_oracle, oracle_boundary, oracle_rank, oracle_rref


def columns(m):
    return [tuple(r[j] for r in m.entries) for j in range(m.cols)]


def test_parse_scalar_accepts_rationals():
    assert parse_scalar("3") == 3
    assert parse_scalar("-7/2") == Fraction(-7, 2)
    assert parse_scalar("+1/3") == Fraction(1, 3)


@pytest.mark.parametrize("bad", ["", "1.5", "1/0", "a", "1/ 2", "0x3", "2e3", "1_0",
                                 "\u0663", "\u0661/\u0662", "3/\u0662"])
def test_parse_scalar_rejects_junk(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


def test_format_scalar_round_trips():
    for v in [Fraction(0), Fraction(5), Fraction(-3, 7)]:
        assert parse_scalar(format_scalar(v)) == v


def test_rank_of_proportional_rows():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    assert rank(m) == 1
    assert m.rank() == 1


def test_rank_identity_and_zero():
    assert rank(Matrix.identity(4)) == 4
    assert rank(Matrix.zeros(3, 5)) == 0


def test_matrix_shape_gate():
    with pytest.raises(ShapeMismatch):
        Matrix.identity(2) @ Matrix.identity(3)


def test_homology_dimension_exact_pair():
    # Q^2 --id--> Q^2 --0--> Q^2 has no homology in the middle
    exact = ChainComplex(0, (2, 2, 2), (Matrix.zeros(2, 2), Matrix.identity(2)))
    assert exact.homology(1) == 0


def test_homology_dimension_zero_maps():
    zero_maps = ChainComplex(0, (1, 3, 2), (Matrix.zeros(1, 3), Matrix.zeros(3, 2)))
    assert zero_maps.homology(1) == 3


def test_homology_dimension_rejects_nonzero_composite():
    with pytest.raises(DifferentialSquareNonzero):
        ChainComplex(0, (2, 2, 2), (Matrix.identity(2), Matrix.identity(2)))


def test_kernel_and_solve():
    m = Matrix.from_rows([[1, 2, 3], [0, 1, 1]])
    ker = kernel_basis(m)
    assert ker.dim == 1
    for col in columns(ker.basis):
        assert m.apply(col) == (0, 0)
    assert solve(m, (1, 0)) is not None
    assert solve(Matrix.zeros(2, 2), (1, 0)) is None


def test_subspace_coords_inside_and_outside():
    sub = Subspace.from_spanning_columns(3, [(1, 0, 1), (0, 1, 0)])
    assert sub.dim == 2
    c = sub.coords((2, 3, 2))
    assert c is not None
    assert sub.coords((0, 0, 1)) is None
    assert sub.coords((1, 1, 1)) is not None


def test_quotient_projection_section_identity():
    sub = Subspace.from_spanning_columns(3, [(1, 1, 0)])
    proj = quotient_projection(sub)
    sect = quotient_section(sub)
    comp = proj @ sect
    assert comp.entries == Matrix.identity(2).entries
    # the section followed by projection fixes classes, and proj kills sub
    for col in columns(sub.basis):
        assert all(c == 0 for c in proj.apply(col))


def test_restrict_map_happy_and_sad():
    f = Matrix.from_rows([[0, 1], [0, 0]])
    line = Subspace.from_spanning_columns(2, [(1, 0)])
    restricted = restrict_map(f, line, line)
    assert restricted.rows == restricted.cols == 1
    swap = Matrix.from_rows([[0, 1], [1, 0]])
    with pytest.raises(NotInvariant):
        restrict_map(swap, line, line)


def assert_canonical(m):
    """Every row (den, ((col, num), ...)) has an int den > 0 sharing no
    factor with all of its nonzero int nums, in strictly rising columns."""
    assert len(m.int_rows) == m.rows
    for den, row in m.int_rows:
        assert type(den) is int and den > 0
        assert all(type(x) is int and x for _, x in row)
        assert [j for j, _ in row] == sorted({j for j, _ in row})
        assert all(0 <= j < m.cols for j, _ in row)
        assert gcd(den, *(x for _, x in row)) == 1


def test_every_constructor_stores_canonical_sparse_rows():
    want = ((Fraction(1), Fraction(0), Fraction(-1, 2)), (Fraction(0), Fraction(3), Fraction(0)))
    built = [
        Matrix.from_rows([[1, 0, Fraction(-1, 2)], [0, 3, 0]]),
        Matrix.from_entries(2, 3, {(0, 2): Fraction(-1, 2), (1, 1): 3, (0, 0): 1, (1, 0): 0}),
        # ints over a common denominator, positive or negative
        Matrix.from_entries(2, 3, {(0, 0): 6, (0, 2): -3, (1, 1): 18, (1, 2): 0}, den=6),
        Matrix.from_entries(2, 3, {(0, 0): -6, (0, 2): 3, (1, 1): -18}, den=-6),
        Matrix.from_rows([(1, 0), (0, 3), (Fraction(-1, 2), 0)]).transpose(),
        Matrix.from_rows(want).transpose().transpose(),
        Matrix.identity(2) @ Matrix.from_rows(want) @ Matrix.identity(3),
        # the product cancels to an explicit zero at (0, 1)
        Matrix.from_rows([[1, 2], [0, 1]]) @ Matrix.from_rows([[1, -6, Fraction(-1, 2)], [0, 3, 0]]),
        # row 0 sums to 6/6 at column 0 and -3/6 at column 2: its content 3
        # cancels against the denominator 6, and column 1 cancels to 0
        Matrix.from_rows([[Fraction(1, 3), Fraction(2, 3)], [0, 1]])
        @ Matrix.from_rows([[3, -6, Fraction(-3, 2)], [0, 3, 0]]),
    ]
    for m in built:
        assert m.int_rows == ((2, ((0, 2), (2, -1))), (1, ((1, 3),)))
        assert m.sparse_rows == (((0, 1), (2, Fraction(-1, 2))), ((1, 3),))
        assert all(type(x) is Fraction for row in m.sparse_rows for _, x in row)
        assert m == built[0] and hash(m) == hash(built[0])
        assert m.entries == want
    # rows over different denominators share a column's lcm once transposed
    mixed = Matrix.from_rows([[Fraction(1, 2), Fraction(-2, 3)], [Fraction(4, 9), 6]])
    assert mixed.transpose().int_rows == ((18, ((0, 9), (1, 8))), (3, ((0, -2), (1, 18))))
    assert mixed.transpose().transpose() == mixed
    assert hash(mixed.transpose().transpose()) == hash(mixed)
    # pivot values -2 and -3 in the reduced rows: each basis column is
    # stored over a positive denominator, in its rows and in the transpose
    sub = Subspace.from_sparse_columns(3, [[(2, 1), (0, -2)], [(1, Fraction(-3, 2))]])
    assert sub.pivots == (0, 1)
    assert sub.basis.int_rows == ((1, ((0, 1),)), (1, ((1, 1),)), (2, ((0, -1),)))
    assert sub.basis.transpose().int_rows == ((2, ((0, 2), (2, -1))), (1, ((1, 1),)))
    assert sub.basis == Matrix.from_rows([[1, 0], [0, 1], [Fraction(-1, 2), 0]])
    for m in built + [mixed, mixed.transpose(), sub.basis, sub.basis.transpose()]:
        assert_canonical(m)
    for rows, cols in [(2, 3), (0, 3), (3, 0)]:
        zeros = Matrix.zeros(rows, cols)
        assert zeros.sparse_rows == ((),) * rows
        assert zeros == Matrix.from_entries(rows, cols, {(0, 0): 0} if rows and cols else {})
    eye = Matrix.identity(3)
    assert eye.sparse_rows == tuple(((i, Fraction(1)),) for i in range(3))
    assert eye == Matrix.from_rows([[int(i == j) for j in range(3)] for i in range(3)])
    assert hash(eye) == hash(Matrix.from_rows([(1, 0, 0), (0, 1, 0), (0, 0, 1)]).transpose())
    assert eye != Matrix.zeros(3, 3) and Matrix.zeros(2, 3) != Matrix.zeros(3, 2)


@pytest.mark.parametrize("build", [
    lambda: Matrix(2, 3, ((),)),
    lambda: Matrix(1, 3, (((3, Fraction(1)),),)),
    lambda: Matrix(1, 3, (((-1, Fraction(1)),),)),
    lambda: Matrix.from_entries(2, 2, {(0, 2): 1}),
    lambda: Matrix.from_rows([[1, 2], [3]]),
    lambda: Subspace.full(2).coords((1,)),
    # a repeated index would be stored as a non-canonical row, or keep only
    # its last value: the zero vector below would span a line
    lambda: Matrix(1, 2, [[(0, 1), (0, 2)]]),
    lambda: Subspace.from_sparse_columns(2, [[(0, 1), (0, -1)]]),
], ids=["row count", "column past the end", "negative column", "from_entries",
        "ragged from_rows", "short coords vector", "repeated column", "repeated index"])
def test_wrong_shape_raises(build):
    with pytest.raises(ShapeMismatch):
        build()


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=3)


@st.composite
def matrices(draw, max_n=4):
    rows = draw(st.integers(1, max_n))
    cols = draw(st.integers(1, max_n))
    data = draw(st.lists(st.lists(small_fracs, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return Matrix.from_rows(data)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert m.rank() + kernel_basis(m).dim == m.cols


@pytest.mark.parametrize("build", [
    lambda: Matrix(1, 1, [[(0, 0.5)]]),
    lambda: Matrix.from_entries(1, 1, {(0, 0): 0.5}),
    lambda: Matrix.from_rows([[0.5]]),
    lambda: LeibnizAlgebra.from_brackets(["x", "y"], {(0, 0): {1: 0.1}}),
    lambda: solve(Matrix.identity(1), [0.5]),
    lambda: Subspace.from_sparse_columns(2, [[(0, 1), (1, 0.5)]]),
    lambda: Subspace.from_sparse_columns(1, [[(0, 0.0)]]),
    lambda: Subspace.from_spanning_columns(2, [[0.0, 1]]),
    lambda: Subspace.full(2).coords([0.0, 1]),
], ids=["init", "from_entries", "from_rows", "from_brackets", "solve", "from_sparse_columns",
        "from_sparse_columns_zero", "from_spanning_columns_zero", "coords_zero"])
def test_floats_are_refused(build):
    # 0.1 would be stored as 3602879701896397/36028797018963968
    with pytest.raises(TypeError, match="float"):
        build()


def test_exact_scalars_convert_exactly():
    row = (1, Fraction(1, 2), "3/4", Decimal("0.1"))
    want = (Fraction(1), Fraction(1, 2), Fraction(3, 4), Fraction(1, 10))
    assert Matrix.from_rows([row]).entries == (want,)
    assert solve(Matrix.identity(4), row) == want
    span = Subspace.from_sparse_columns(4, [list(enumerate(row))])
    assert span == Subspace.from_sparse_columns(4, [list(enumerate(want))])
    # a zero written any exact way is dropped, not stored
    assert (Subspace.from_sparse_columns(2, [[(0, "0"), (1, Decimal("0.5"))]])
            == Subspace.from_sparse_columns(2, [[(1, 1)]]))


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_rank_of_product_bounded(a, data):
    b = data.draw(matrices())
    if a.cols != b.rows:
        b = b.transpose()
    if a.cols != b.rows:
        return
    assert (a @ b).rank() <= min(a.rank(), b.rank())


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_transpose_preserves_rank(m):
    assert m.transpose().rank() == m.rank()


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_solve_consistency(m):
    # any vector in the column span must be solvable, and the solution
    # must reproduce it
    for b in columns(m):
        x = solve(m, b)
        assert x is not None
        assert m.apply(x) == b


# --- differential tests: library rank, mul and apply against the dense
# --- Bareiss oracle and naive loops over every cell

big_fracs = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 20))
cells = st.one_of(st.just(Fraction(0)), small_fracs, big_fracs)


def matrix_of(rows, cols, data):
    """Matrix with any shape, 0 rows or 0 columns included."""
    return Matrix.from_entries(rows, cols, {(i, j): x for i, r in enumerate(data)
                                            for j, x in enumerate(r)})


@st.composite
def rational_matrices(draw, max_n=7, rows=None):
    if rows is None:
        rows = draw(st.integers(0, max_n))
    cols = draw(st.integers(0, max_n))
    zero_share = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    data = [[draw(cells) if draw(st.floats(0, 1)) >= zero_share else Fraction(0)
             for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        # one row a nonzero rational multiple of another
        src, dst = draw(st.permutations(range(rows)))[:2]
        c = draw(st.one_of(small_fracs, big_fracs).filter(bool))
        data[dst] = [c * x for x in data[src]]
    for i in draw(st.lists(st.integers(0, max(rows - 1, 0)), max_size=2)) if rows else []:
        data[i] = [Fraction(0)] * cols
    for j in draw(st.lists(st.integers(0, max(cols - 1, 0)), max_size=2)) if cols else []:
        for r in data:
            r[j] = Fraction(0)
    return matrix_of(rows, cols, data)


@st.composite
def block_matrices(draw):
    """Two random blocks placed diagonally, then rows and columns permuted;
    returns (matrix, block1, block2)."""
    a = draw(rational_matrices(max_n=4))
    b = draw(rational_matrices(max_n=4))
    rows, cols = a.rows + b.rows, a.cols + b.cols
    data = [[Fraction(0)] * cols for _ in range(rows)]
    for i, r in enumerate(a.entries):
        data[i][:a.cols] = r
    for i, r in enumerate(b.entries):
        data[a.rows + i][a.cols:] = r
    rperm = draw(st.permutations(range(rows)))
    cperm = draw(st.permutations(range(cols)))
    data = [[data[i][j] for j in cperm] for i in rperm]
    return matrix_of(rows, cols, data), a, b


def naive_mul(a, b):
    return tuple(tuple(sum((a.entries[i][k] * b.entries[k][j] for k in range(a.cols)), Fraction(0))
                       for j in range(b.cols)) for i in range(a.rows))


def naive_apply(m, v):
    return tuple(sum((m.entries[i][j] * v[j] for j in range(m.cols)), Fraction(0))
                 for i in range(m.rows))


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_rank_matches_dense_oracle(m):
    want = dense_rank_oracle(m)
    assert rank(m) == want
    assert m.rank() == want
    assert rank(m.transpose()) == want


@settings(max_examples=80, deadline=None)
@given(block_matrices())
def test_rank_of_permuted_blocks_is_additive(case):
    m, a, b = case
    assert rank(m) == dense_rank_oracle(m) == dense_rank_oracle(a) + dense_rank_oracle(b)


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0)])
def test_rank_and_products_of_empty_shapes(rows, cols):
    m = matrix_of(rows, cols, [[]] * rows)
    assert rank(m) == m.rank() == 0
    assert m.apply((Fraction(1),) * cols) == (Fraction(0),) * rows
    other = matrix_of(cols, 2, [[1, 2]] * cols)
    assert (m @ other).entries == naive_mul(m, other)


@settings(max_examples=100, deadline=None)
@given(rational_matrices(), st.data())
def test_mul_and_apply_match_naive_loops(a, data):
    b = data.draw(rational_matrices(rows=a.cols))
    assert (a @ b).entries == naive_mul(a, b)
    assert a.mul(b) == matrix_of(a.rows, b.cols, naive_mul(a, b))
    v = data.draw(st.lists(cells, min_size=a.cols, max_size=a.cols))
    assert a.apply(v) == naive_apply(a, v)
    ints = data.draw(st.lists(st.integers(-3, 3), min_size=a.cols, max_size=a.cols))
    got = a.apply(ints)
    assert got == naive_apply(a, ints)
    assert all(isinstance(x, Fraction) for x in got)


@settings(max_examples=150, deadline=None)
@given(rational_matrices(), st.integers(-5, 5).filter(bool))
def test_one_matrix_from_every_constructor_is_one_value(m, scale):
    """The same rational matrix by from_rows, from_entries with and
    without den, identity @ m and m @ identity: equal values, equal
    hashes, canonical."""
    dense = m.entries
    values = {(i, j): x for i, r in enumerate(dense) for j, x in enumerate(r)}
    den = scale * lcm(*(x.denominator for x in values.values()))
    built = [
        Matrix.from_entries(m.rows, m.cols, values),
        Matrix.from_entries(m.rows, m.cols, {k: int(x * den) for k, x in values.items()}, den=den),
        Matrix.identity(m.rows) @ m,
        m @ Matrix.identity(m.cols),
    ]
    if m.rows:
        built.append(Matrix.from_rows(dense))
    for b in built:
        assert_canonical(b)
        assert b == m and hash(b) == hash(m)
        assert b.entries == dense


def test_rank_of_heis3_degree6_boundary_matches_oracle():
    g = CORPUS["heis3"]
    d6 = loday_complex(g, trivial_coefficients(), 6).diffs[5]
    want = oracle_rank(oracle_boundary(dense(g.structure, 3, 3), 6))
    assert (d6.rows, d6.cols) == (243, 729)
    assert rank(d6) == want == dense_rank_oracle(d6)


# --- kernels, solutions and spans against the dense reduced echelon
# --- oracle: each answer is canonical, so they must agree exactly


def oracle_subspace(ambient, vectors):
    """The canonical Subspace spanned by vectors: the oracle's reduced
    rows become the basis columns, its pivots the pivots."""
    red, pivots = oracle_rref(vectors)
    k = len(pivots)
    basis = matrix_of(ambient, k, [[red[j][i] for j in range(k)] for i in range(ambient)])
    return Subspace(ambient, basis, tuple(pivots))


def oracle_kernel(m):
    red, pivots = oracle_rref(m.entries)
    vectors = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for k, p in enumerate(pivots):
            v[p] = -red[k][f]
        vectors.append(v)
    return oracle_subspace(m.cols, vectors)


def oracle_solve(a, b):
    red, pivots = oracle_rref([list(r) + [Fraction(x)] for r, x in zip(a.entries, b)])
    if a.cols in pivots:
        return None
    x = [Fraction(0)] * a.cols
    for k, p in enumerate(pivots):
        x[p] = red[k][a.cols]
    return tuple(x)


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_kernel_basis_matches_dense_oracle(m):
    ker = kernel_basis(m)
    assert ker == oracle_kernel(m)
    assert ker.dim == m.cols - dense_rank_oracle(m)
    for col in columns(ker.basis):
        assert not any(m.apply(col))


@settings(max_examples=150, deadline=None)
@given(rational_matrices(), st.data())
def test_solve_matches_dense_oracle(a, data):
    b = data.draw(st.lists(cells, min_size=a.rows, max_size=a.rows))
    assert solve(a, b) == oracle_solve(a, b)
    x = data.draw(st.lists(cells, min_size=a.cols, max_size=a.cols))
    reachable = a.apply(x)
    got = solve(a, reachable)
    assert got == oracle_solve(a, reachable)
    assert a.apply(got) == reachable


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_spans_match_dense_oracle(m):
    want = oracle_subspace(m.rows, columns(m))
    assert Subspace.from_spanning_columns(m.rows, columns(m)) == want
    span = column_span(m)
    assert span == want
    # the rows as spanning vectors given as plain lists
    assert Subspace.from_spanning_columns(m.cols, [list(r) for r in m.entries]) \
        == oracle_subspace(m.cols, m.entries)


# --- subspace maps against the per-vector code they replaced: one apply
# --- and one reconstruct-and-compare membership test per basis vector

def oracle_coords(sub, v):
    """The entries of v at the pivots, if the basis rebuilds v from them."""
    a = tuple(Fraction(v[p]) for p in sub.pivots)
    if all(x == Fraction(y) for x, y in zip(naive_apply(sub.basis, a), v)):
        return a
    return None


def oracle_restrict_map(f, source, target):
    cols = []
    for i, col in enumerate(columns(source.basis)):
        c = oracle_coords(target, naive_apply(f, col))
        if c is None:
            raise NotInvariant(f"image of source basis vector {i}")
        cols.append(c)
    return matrix_of(target.dim, source.dim, [[c[r] for c in cols] for r in range(target.dim)])


def oracle_quotient_coords(sub, v):
    """v minus its pivot part, read off the pivots: the class of v."""
    w = [a - b for a, b in zip(v, naive_apply(sub.basis, [v[p] for p in sub.pivots]), strict=True)]
    return tuple(w[c] for c in sub.complement)


def oracle_induced_map(src, dst, f_k, k):
    K, I = src.cycle_space(k), src.boundary_space(k)
    K2, I2 = dst.cycle_space(k), dst.boundary_space(k)
    IK = oracle_subspace(K.dim, [oracle_coords(K, c) for c in columns(I.basis)])
    IK2 = oracle_subspace(K2.dim, [oracle_coords(K2, c) for c in columns(I2.basis)])
    cols = []
    for c in IK.complement:
        unit = [Fraction(int(i == c)) for i in range(K.dim)]
        w = naive_apply(f_k, naive_apply(K.basis, unit))
        cols.append(oracle_quotient_coords(IK2, oracle_coords(K2, w)))
    rows = K2.dim - IK2.dim
    return matrix_of(rows, len(cols), [[c[r] for c in cols] for r in range(rows)])


def draw_vectors(draw, ambient, max_count, min_count=0):
    return draw(st.lists(st.lists(st.one_of(st.just(Fraction(0)), small_fracs),
                                  min_size=ambient, max_size=ambient),
                         min_size=min_count, max_size=max_count))


@st.composite
def subspaces(draw, ambient=None):
    if ambient is None:
        ambient = draw(st.integers(0, 6))
    return oracle_subspace(ambient, draw_vectors(draw, ambient, ambient + 1))


@st.composite
def subspace_maps(draw):
    """(f, source, target) with the target spanned by the images of the
    source basis plus random vectors (invariant), or by random vectors
    only, or by all images but one (invariant only by chance)."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(0, 5))
    f = matrix_of(m, n, draw_vectors(draw, n, m, min_count=m))
    source = oracle_subspace(n, draw_vectors(draw, n, n + 1, min_count=1))
    extra = draw_vectors(draw, f.rows, 2)
    images = [naive_apply(f, col) for col in columns(source.basis)]
    kind = draw(st.sampled_from(["invariant", "random", "one short"]))
    if kind == "invariant":
        extra += images
    elif kind == "one short" and images:
        extra += images[:-1]
    return f, source, oracle_subspace(f.rows, extra)


@settings(max_examples=200, deadline=None)
@given(subspace_maps())
def test_restrict_map_matches_per_vector_oracle(case):
    f, source, target = case
    try:
        want = oracle_restrict_map(f, source, target)
    except NotInvariant:
        with pytest.raises(NotInvariant):
            restrict_map(f, source, target)
    else:
        assert restrict_map(f, source, target) == want


@settings(max_examples=150, deadline=None)
@given(subspaces(), st.data())
def test_coords_and_contains_match_reconstruct_and_compare(sub, data):
    n = sub.ambient_dim
    member = naive_apply(sub.basis, data.draw(st.lists(small_fracs, min_size=sub.dim,
                                                       max_size=sub.dim)))
    for v in [member, *draw_vectors(data.draw, n, 3),
              [x + int(i == 0) for i, x in enumerate(member)]]:
        want = oracle_coords(sub, v)
        assert sub.coords(v) == want
        assert sub.coords([int(x) if x.denominator == 1 else x for x in v]) == want
    with pytest.raises(ShapeMismatch):
        sub.coords((Fraction(0),) * (n + 1))


@st.composite
def chain_maps(draw):
    """(src, dst, f) around degree 1 of complexes in degrees 0..2.

    src: C2 -d_in-> C1 -d_out-> C0 with d_in = V1 R1 and d_out = R2 W2,
    where V is unimodular, V1 its first s columns and W2 the rows of
    V^-1 from s on, so d_out d_in = 0.  f = F on C1 is injective with a
    left inverse L (F, L cut from another unimodular pair) and the
    identity on C2 and C0, which is a chain map into dst: C2 -F d_in-> C1'
    -(d_out L + M (1 - F L))-> C0."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(1, 5))
    s = draw(st.integers(0, n))
    m, p, extra = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 2))
    v, vinv = unimodular(rng, n)
    u, uinv = unimodular(rng, n + extra)
    fracs = st.one_of(st.just(Fraction(0)), small_fracs)

    def rand(rows, cols):
        return matrix_of(rows, cols, draw(st.lists(st.lists(fracs, min_size=cols, max_size=cols),
                                                   min_size=rows, max_size=rows)))

    v1 = matrix_of(n, s, [r[:s] for r in v])
    w2 = matrix_of(n - s, n, vinv[s:])
    d_in = v1 @ rand(s, m)
    d_out = rand(p, n - s) @ w2
    f = matrix_of(n + extra, n, [r[:n] for r in u])
    left = matrix_of(n, n + extra, uinv[:n])
    # d_out L + M (1 - F L), summed cell by cell
    fl = (f @ left).entries
    lower = (d_out @ left).entries
    rest = (rand(p, n + extra) @ matrix_of(n + extra, n + extra, [
        [int(i == j) - x for j, x in enumerate(r)] for i, r in enumerate(fl)])).entries
    d_out2 = matrix_of(p, n + extra, [[a + b for a, b in zip(r1, r2)]
                                      for r1, r2 in zip(lower, rest)])
    src = ChainComplex(0, (p, n, m), (d_out, d_in))
    dst = ChainComplex(0, (p, n + extra, m), (d_out2, f @ d_in))
    return src, dst, f


@settings(max_examples=100, deadline=None)
@given(chain_maps())
def test_induced_map_matches_per_vector_oracle(case):
    src, dst, f = case
    assert _induced_rank(src, dst, f, 1) == oracle_induced_map(src, dst, f, 1).rank()


def oracle_coords_matrix(sub, m):
    """The oracle coordinates in sub of every column of m, as columns."""
    cols = [oracle_coords(sub, col) for col in columns(m)]
    assert None not in cols
    return matrix_of(sub.dim, m.cols, [[c[r] for c in cols] for r in range(sub.dim)])


def test_library_subspace_maps_match_oracles(monkeypatch):
    """Every restriction in fg_subcomplex and conjecture_check and every
    induced rank in ce_projection, on the corpus, against the oracles.  A
    restriction X between the block bases, the columns of B_src and B_dst,
    must give B_dst X = d B_src entry for entry; and with R the oracle's
    restriction between the canonical bases of their spans and P the
    oracle coordinates of a block basis there, R P_src = P_dst X."""
    calls = {"restrict": 0, "induced": 0}
    real = homology._restrict

    def restrict(dt, source, target):
        calls["restrict"] += 1
        got = real(dt, source, target)
        d = dt.transpose()
        b_src, b_dst = basis_matrix(d.cols, source), basis_matrix(d.rows, target)
        assert b_dst @ got == d @ b_src
        s_src, s_dst = column_span(b_src), column_span(b_dst)
        # the block bases are bases: X is the only solution of the above
        assert (s_src.dim, s_dst.dim) == (len(source), len(target))
        p_src, p_dst = oracle_coords_matrix(s_src, b_src), oracle_coords_matrix(s_dst, b_dst)
        assert oracle_restrict_map(d, s_src, s_dst) @ p_src == p_dst @ got
        return got

    def induced(src, dst, f_k, k):
        calls["induced"] += 1
        got = _induced_rank(src, dst, f_k, k)
        assert got == oracle_induced_map(src, dst, f_k, k).rank()
        return got

    monkeypatch.setattr(homology, "_restrict", restrict)
    monkeypatch.setattr(homology, "_induced_rank", induced)
    for g in CORPUS.values():
        fg_subcomplex(g, 4)
        ce_projection(g, trivial_coefficients(), 4)
    heis3 = CORPUS["heis3"]
    ce_projection(heis3, quotient_adjoint_module(lie_quotient(heis3)), 3)
    conjecture_check(2, 4)
    assert calls["restrict"] > 0 and calls["induced"] > 0
