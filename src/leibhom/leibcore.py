"""Leibniz algebras, their Lie quotients and representations.

Conventions used throughout the package:

* left Leibniz identity:   [[x,y],z] = [x,[y,z]] - [y,[x,z]]
* right Leibniz identity:  [x,[y,z]] = [[x,y],z] - [[x,z],y]

The pipeline works internally with the left convention; right-convention
input is converted through `opposite` at the boundary.  The two-sided
ideal spanned by squares [x,x] is computed from the polarized spanning
set [x,y] + [y,x], which is equivalent over a field of characteristic 0.

Every bracket and action is stored as its table: the Matrix of the
bilinear map k^a x k^b -> k^c from the pair space to the value space,
whose column i*b + j holds [e_i, e_j] (`tensor3` builds one).  The
bracket of the columns of U and V is then T (U (x) V), the opposite
bracket a column permutation, and each axiom a matrix identity whose
nonzero columns are the basis tuples where it fails.

The structure constants depend on the basis, and the cost of a complex
follows their count: `sparse_basis` looks for an isomorphic algebra with
fewer of them by exact elementary changes of basis, then runs the same
search on the basis of a module carried along, a module over the Lie
quotient through its lift, and `is_isomorphism` checks both changes.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .exactla import (
    Matrix,
    Subspace,
    _Frozen,
    _kron,
    _lincomb,
    _swap,
    column_span,
    quotient_projection,
    quotient_section,
    rank,
)


class IllDefinedQuotient(Exception):
    """The bracket does not descend to the requested quotient."""


def tensor3(a: int, b: int, c: int, entries: Mapping[tuple[int, int, int], object]) -> Matrix:
    """The table of the bilinear map k^a x k^b -> k^c whose value at
    (e_i, e_j) has entries[i, j, k] at e_k: a c x ab Matrix whose column
    i*b + j holds [e_i, e_j]."""
    return Matrix.from_entries(c, a * b, {(k, i * b + j): v for (i, j, k), v in entries.items()})


def _violations(defect: Matrix, *dims: int) -> list[tuple[int, ...]]:
    """The nonzero columns of defect in order, each as its index tuple in
    k^dims[0] x k^dims[1] x ...: the basis tuples where an identity fails."""
    out = []
    for c in sorted({j for _, row in defect.int_rows for j, _ in row}):
        idx = []
        for n in reversed(dims):
            c, r = divmod(c, n)
            idx.append(r)
        out.append(tuple(reversed(idx)))
    return out


def _check_structure(dim: int, structure: Matrix) -> None:
    """Raise ValueError unless structure is the table of a bracket on k^dim."""
    if (structure.rows, structure.cols) != (dim, dim * dim):
        raise ValueError(f"a {dim}-dim algebra needs a {dim} x {dim * dim} structure table, "
                         f"got {structure.rows} x {structure.cols}")


class LeibnizAlgebra(_Frozen):
    """structure is the table of the bracket: column i*dim + j holds [e_i, e_j]."""

    __match_args__ = ("dim", "basis_names", "structure", "convention")

    def __init__(self, dim: int, basis_names: tuple[str, ...], structure: Matrix,
                 convention: str = "left"):
        if len(basis_names) != dim:
            raise ValueError("basis_names length does not match dim")
        if convention not in ("left", "right"):
            raise ValueError(f"unknown convention {convention!r}")
        _check_structure(dim, structure)
        self.__dict__.update(dim=dim, basis_names=basis_names, structure=structure,
                             convention=convention)

    @staticmethod
    def from_brackets(names: Sequence[str], brackets: Mapping[tuple[int, int], Mapping[int, object]],
                      convention: str = "left") -> "LeibnizAlgebra":
        n = len(names)
        entries = {(i, j, k): c for (i, j), val in brackets.items() for k, c in val.items()}
        return LeibnizAlgebra(n, tuple(names), tensor3(n, n, n, entries), convention)

    @cached_property
    def quotient_data(self) -> QuotientData:
        """lie_quotient(self), built once per algebra."""
        return lie_quotient(self)


class LieAlgebra(_Frozen):
    __match_args__ = ("dim", "basis_names", "structure")

    def __init__(self, dim: int, basis_names: tuple[str, ...], structure: Matrix):
        _check_structure(dim, structure)
        self.__dict__.update(dim=dim, basis_names=basis_names, structure=structure)

    @staticmethod
    def from_brackets(names: Sequence[str], brackets: Mapping[tuple[int, int], Mapping[int, object]]) -> "LieAlgebra":
        g = LeibnizAlgebra.from_brackets(names, brackets)
        return LieAlgebra(g.dim, g.basis_names, g.structure)


def _module_defect(t: Matrix, act: Matrix, n: int, d: int) -> Matrix:
    """The table of [x,y].m - x.(y.m) + y.(x.m) on g (x) g (x) m, for the
    bracket table t of an n-dim g acting on a d-dim m by act: the left
    module identity, and for act = t the left Leibniz identity."""
    x_ym = act @ _kron(Matrix.identity(n), act)
    return _lincomb((1, act @ _kron(t, Matrix.identity(d))), (-1, x_ym),
                    (1, x_ym @ _kron(_swap(n, n), Matrix.identity(d))))


def check_leibniz(g: LeibnizAlgebra) -> tuple[tuple[int, int, int], ...]:
    """All basis triples (i, j, k) violating the Leibniz identity of g's convention."""
    # the right identity of g at (i, j, k) is the left identity of opposite(g) at (k, j, i)
    h = g if g.convention == "left" else opposite(g)
    bad = _violations(_module_defect(h.structure, h.structure, h.dim, h.dim), h.dim, h.dim, h.dim)
    return tuple(bad) if h is g else tuple(sorted((k, j, i) for i, j, k in bad))


def check_lie(h: LieAlgebra) -> tuple[tuple, ...]:
    """Antisymmetry and Jacobi violations, tagged per family."""
    n, t = h.dim, h.structure
    bad = [("antisymmetry", i, j) for i, j in _violations(_lincomb((1, t), (1, t @ _swap(n, n))), n, n)]
    inner = t @ _kron(Matrix.identity(n), t)  # [x,[y,z]]
    cycle = _swap(n, n * n)                   # x (x) y (x) z -> y (x) z (x) x
    jacobi = _lincomb((1, inner), (1, inner @ cycle), (1, inner @ cycle @ cycle))
    return tuple(bad + [("jacobi", i, j, k) for i, j, k in _violations(jacobi, n, n, n)])


def opposite(g: LeibnizAlgebra) -> LeibnizAlgebra:
    """Same space, arguments swapped; flips the convention."""
    conv = "right" if g.convention == "left" else "left"
    return LeibnizAlgebra(g.dim, g.basis_names, g.structure @ _swap(g.dim, g.dim), conv)


def _polarized(g: LeibnizAlgebra) -> Matrix:
    """The table of [x,y] + [y,x]."""
    return _lincomb((1, g.structure), (1, g.structure @ _swap(g.dim, g.dim)))


def kernel_ideal(g: LeibnizAlgebra) -> Subspace:
    """Span of squares [x,x], computed from the polarized generators [x,y]+[y,x]."""
    return column_span(_polarized(g))


class QuotientData(_Frozen):
    """The maximal Lie quotient with the projection g -> g_Lie, the table
    of g_Lie x g -> g (the left action through the projection), the
    square span ann, the canonical coordinate lift g_Lie -> g and the
    coordinates it keeps."""

    __match_args__ = ("quotient", "projection", "action_on_g", "ann", "section", "complement")

    def __init__(self, quotient: LieAlgebra, projection: Matrix, action_on_g: Matrix,
                 ann: Subspace, section: Matrix, complement: tuple[int, ...]):
        self.__dict__.update(quotient=quotient, projection=projection, action_on_g=action_on_g,
                             ann=ann, section=section, complement=complement)


def lie_quotient(g: LeibnizAlgebra) -> QuotientData:
    """Maximal Lie quotient g / span{[x,x]} together with its action on g.

    The quotient basis extends a column echelon basis of the square span
    to a basis of g and keeps the complementary coordinates.
    """
    if g.convention != "left":
        raise ValueError("lie_quotient expects the left convention; convert with opposite() first")
    ann = kernel_ideal(g)
    proj, sect, comp = quotient_projection(ann), quotient_section(ann), ann.complement
    n, s, t = g.dim, ann.dim, g.structure
    eye = Matrix.identity(n)

    # the bracket must descend: ann has to be a two-sided ideal
    escapes = [(a, i, f"[ann_{a}, e_{i}]") for a, i in _violations(proj @ t @ _kron(ann.basis, eye), s, n)]
    escapes += [(a, i, f"[e_{i}, ann_{a}]") for i, a in _violations(proj @ t @ _kron(eye, ann.basis), n, s)]
    if escapes:
        raise IllDefinedQuotient(f"{min(escapes)[2]} leaves the square span")

    names = tuple(f"{g.basis_names[c]}~" for c in comp)
    quotient = LieAlgebra(len(comp), names, proj @ t @ _kron(sect, sect))
    action = t @ _kron(sect, eye)

    # the action must factor the original left multiplication: pr(x).y == [x,y]
    wrong = _violations(_lincomb((1, action @ _kron(proj, eye)), (-1, t)), n, n)
    if wrong:
        raise IllDefinedQuotient("action through the projection disagrees with [e_{}, e_{}]"
                                 .format(*wrong[0]))
    return QuotientData(quotient, proj, action, ann, sect, comp)


class Representation(_Frozen):
    """Two-sided module over a Leibniz algebra: actions [x,m] and [m,x].
    left_action is the table of g x m -> m (column i*dim + j holds
    [e_i, f_j]), right_action that of m x g -> m (column j*g.dim + i
    holds [f_j, e_i])."""

    __match_args__ = ("dim", "basis_names", "left_action", "right_action")

    def __init__(self, dim: int, basis_names: tuple[str, ...], left_action: Matrix,
                 right_action: Matrix):
        if len(basis_names) != dim:
            raise ValueError("basis_names length does not match dim")
        for name, table in (("left_action", left_action), ("right_action", right_action)):
            if table.rows != dim:
                raise ValueError(f"a {dim}-dim module needs {dim} rows in {name}, "
                                 f"got {table.rows}")
        self.__dict__.update(dim=dim, basis_names=basis_names, left_action=left_action,
                             right_action=right_action)


def trivial_representation(g: LeibnizAlgebra, dim: int = 1, names: Sequence[str] | None = None) -> Representation:
    if names is None:
        names = tuple(f"m{i}" for i in range(dim))
    zero = Matrix.zeros(dim, g.dim * dim)
    return Representation(dim, tuple(names), zero, zero)


def adjoint_representation(g: LeibnizAlgebra) -> Representation:
    return Representation(g.dim, g.basis_names, g.structure, g.structure)


def check_representation(g: LeibnizAlgebra, m: Representation) -> tuple[tuple, ...]:
    """Violations of the three compatibility identities, tagged mxy/xmy/xym."""
    n, d, t = g.dim, m.dim, g.structure
    left, right = m.left_action, m.right_action
    gi, mi = Matrix.identity(n), Matrix.identity(d)
    # each identity as a map on m (x) x (x) y
    mx = _kron(_swap(d, n), gi)  # m (x) x (x) y -> x (x) m (x) y
    xy = _swap(d, n * n)         # m (x) x (x) y -> x (x) y (x) m
    m_xy = right @ _kron(mi, t)          # [m,[x,y]]
    x_my = left @ _kron(gi, right) @ mx  # [x,[m,y]]
    defects = {
        # [[m,x],y] = [m,[x,y]] - [x,[m,y]]
        "mxy": _lincomb((1, right @ _kron(right, gi)), (-1, m_xy), (1, x_my)),
        # [[x,m],y] = [x,[m,y]] - [m,[x,y]]
        "xmy": _lincomb((1, right @ _kron(left, gi) @ mx), (-1, x_my), (1, m_xy)),
        # [[x,y],m] = [x,[y,m]] - [y,[x,m]]
        "xym": _module_defect(t, left, n, d) @ xy,
    }
    bad = [(tag, a, i, j) for tag, defect in defects.items() for a, i, j in _violations(defect, d, n, n)]
    # by triple, and per triple in the order above: the sort is stable
    bad.sort(key=lambda v: v[1:])
    return tuple((tag, i, j, a) if tag == "xym" else (tag, a, i, j) for tag, a, i, j in bad)


def opposite_representation(g: LeibnizAlgebra, m: Representation) -> Representation:
    """Module over opposite(g): the two actions trade places."""
    n, d = g.dim, m.dim
    return Representation(d, m.basis_names, m.right_action @ _swap(n, d), m.left_action @ _swap(d, n))


def symmetrization(m: Representation) -> tuple[Subspace, int, Matrix]:
    """(span of [x,m]+[m,x], dim of the quotient, projection matrix)."""
    n = m.left_action.cols // m.dim if m.dim else 0  # the zero module has no columns
    anti = column_span(_lincomb((1, m.left_action), (1, m.right_action @ _swap(n, m.dim))))
    return anti, m.dim - anti.dim, quotient_projection(anti)


class LieModule(_Frozen):
    """Left module over a Lie algebra h: action is the table of h x m -> m,
    column a*dim + j holding e_a . f_j."""

    __match_args__ = ("dim", "action")

    def __init__(self, dim: int, action: Matrix):
        self.__dict__.update(dim=dim, action=action)


def _check_width(mod: LieModule, r: int) -> None:
    """Raise ValueError unless mod's action table is that of an r-dim Lie algebra."""
    d, action = mod.dim, mod.action
    if (action.rows, action.cols) != (d, r * d):
        raise ValueError(f"a {d}-dim module over a {r}-dim Lie algebra needs a {d} x {r * d} "
                         f"action table, got {action.rows} x {action.cols}")


def check_lie_module(h: LieAlgebra, mod: LieModule) -> tuple[tuple, ...]:
    """Triples (i, j, a) where [x,y].m = x.(y.m) - y.(x.m) fails."""
    _check_width(mod, h.dim)
    return tuple(_violations(_module_defect(h.structure, mod.action, h.dim, mod.dim),
                             h.dim, h.dim, mod.dim))


def adjoint_lie_module(h: LieAlgebra) -> LieModule:
    return LieModule(h.dim, h.structure)


def lie_module_lift(g: LeibnizAlgebra, mod: LieModule) -> Representation:
    """Representation of g induced by a module over g.quotient_data.

    [x, m] = pr(x).m and [m, x] = -pr(x).m, which satisfies all three
    compatibility identities.
    """
    d, qdata = mod.dim, g.quotient_data
    _check_width(mod, qdata.quotient.dim)
    left = mod.action @ _kron(qdata.projection, Matrix.identity(d))
    right = _lincomb((-1, left @ _swap(d, g.dim)))
    return Representation(d, tuple(f"m{i}" for i in range(d)), left, right)


# ---------------------------------------------------------------------------
# a sparse basis

# The most elementary moves one search of _descent takes.  Each move removes
# at least one constant, so the search also ends when none is left to win.
SPARSE_STEPS = 16


def _moved(cells: dict, by: tuple, i: int, j: int, full: bool) -> dict:
    """The structure constants after e_i <- e_i + c e_j as polynomials in c,
    {(a, b, k): [p0, p1, p2, p3]}, from the int constants cells, which
    by = _by_index(cells, n) lists by their a, b and k: with S = I + c E_ji
    the new table is S^-1 T (S (x) S), so a constant at (a, b, k) also
    reaches a = i if a = j, b = i if b = j, and k = j with -c if k = i.
    Only the keys a term of degree >= 1 reaches, unless full."""
    polys: dict = defaultdict(lambda: [0, 0, 0, 0])
    by_a, by_b, by_k = by
    if full:
        for key, t in cells.items():
            polys[key][0] += t
    for (a, b, _), t in by_k[i]:
        polys[a, b, j][1] -= t
    for (_, b, k), t in by_a[j]:
        polys[i, b, k][1] += t
        if k == i:
            polys[i, b, j][2] -= t
        if b == j:
            polys[i, i, k][2] += t
            if k == i:
                polys[i, i, j][3] -= t
    for (a, _, k), t in by_b[j]:
        polys[a, i, k][1] += t
        if k == i:
            polys[a, i, j][2] -= t
    if not full:
        # a constant term at a key comes only from the constant there
        for key, p in polys.items():
            p[0] = cells.get(key, 0)
    return polys


def _by_index(cells: dict, n: int) -> tuple:
    """The items of cells {(a, b, k): x} listed by a, by b and by k."""
    by = tuple([[] for _ in range(n)] for _ in range(3))
    for item in cells.items():
        for lists, index in zip(by, item[0]):
            lists[index].append(item)
    return by


def _value(p: list[int], num: int, den: int) -> int:
    """den^3 p(num/den) for the cubic p, coefficients from the constant up."""
    return ((p[3] * num + p[2] * den) * num + p[1] * den * den) * num + p[0] * den ** 3


def _best_move(cells: dict, n: int, lo: int) -> tuple | None:
    """(i, j, num, den) of the move e_i <- e_i + (num/den) e_j, lo <= i, j
    < n, that leaves the fewest structure constants, then has the smallest
    |num| + den, c the root of a moved constant c^m (u + v c); None when no
    move leaves fewer."""
    best, by = None, _by_index(cells, n)
    by_a, by_b, by_k = by
    for i in range(lo, n):
        for j in range(lo, n):
            # a move changes constants only if some have a = j, b = j or
            # k = i, and it can zero only constants at a = i, b = i or k = j
            moving, zeroable = by_a[j] or by_b[j] or by_k[i], by_a[i] or by_b[i] or by_k[j]
            if i == j or not (moving and zeroable):
                continue
            polys = _moved(cells, by, i, j, False).values()
            # the count at a c that zeroes nothing: a zero may become nonzero
            nnz = len(cells) + sum(1 for p in polys if not p[0] and any(p))
            if nnz - len(polys) >= (len(cells) if best is None else best[0] + 1):
                continue
            vanish: dict[tuple[int, int], int] = {}
            others = []
            for p in polys:
                if p[0] and p[1] and not p[2] and not p[3]:  # the usual case
                    u, v = p[0], p[1]
                else:
                    terms = [d for d in range(4) if p[d]]
                    if len(terms) != 2 or terms[1] != terms[0] + 1:
                        if len(terms) > 1:
                            others.append(p)
                        continue
                    u, v = p[terms[0]], p[terms[1]]
                g = gcd(u, v) if v > 0 else -gcd(u, v)
                root = (-u // g, v // g)
                vanish[root] = vanish.get(root, 0) + 1
            for (num, den), count in vanish.items():
                count += sum(1 for p in others if not _value(p, num, den))
                key = (nnz - count, abs(num) + den, i, j, num, den)
                if key[0] < len(cells) and (best is None or key < best):
                    best = key
    return None if best is None else best[2:]


def _int_cells(*parts: tuple) -> tuple[dict, int]:
    """(cells, scale): the entries of the tables of parts as the int cells
    {(a, b, k): x} of one bilinear map, each entry x / scale.  A part
    (table, a0, b0, k0, wb) places the table of a map k^wa x k^wb -> k^rows
    at the indices a0.., b0.. and k0..: its entry at row k, column
    c = i*wb + j, goes to (a0 + i, b0 + j, k0 + k)."""
    scale = lcm(*[d for t, *_ in parts for d, _ in t.int_rows])
    return {(a0 + c // wb, b0 + c % wb, k0 + k): x * (scale // d) for t, a0, b0, k0, wb in parts
            for k, (d, row) in enumerate(t.int_rows) for c, x in row}, scale


def _descent(cells: dict, scale: int, n: int, lo: int = 0):
    """Yield (i, j, c, cells, scale) for each move e_i <- e_i + c e_j,
    lo <= i, j < n, of the greedy descent on the number of nonzero
    constants of a bilinear map on k^n, given as the ints cells
    {(a, b, k): x}, [e_a, e_b] having x / scale at e_k: at most
    SPARSE_STEPS moves, each one lowering the count, each yield in the
    basis the moves so far give."""
    # a table of rank r has at least r nonzero entries, and a change of
    # basis keeps its rank (dim [g, g] for a bracket): no move goes below
    bound = rank(Matrix.from_entries(
        n, n * n, {(k, a * n + b): x for (a, b, k), x in cells.items()}))
    for _ in range(SPARSE_STEPS):
        move = None if len(cells) <= bound else _best_move(cells, n, lo)
        if move is None:
            return
        i, j, num, den = move
        moved = {key: v for key, p in _moved(cells, _by_index(cells, n), i, j, True).items()
                 if (v := _value(p, num, den))}
        content = gcd(*moved.values())
        cells = {key: v // content for key, v in moved.items()}
        scale = Fraction(scale * den ** 3, content)
        yield i, j, Fraction(num, den), cells, scale


def _sparse_tables(n: int, lo: int, *parts: tuple) -> tuple | None:
    """(tables, B): the tables of parts (see _int_cells), whose ranges of a
    do not meet, in the basis where the descent of _descent on them ends,
    B the change of basis of the indices lo..n-1 it takes,
    f_(lo+u) = sum_v B[v][u] e_(lo+v); None when it takes no move."""
    b = [[Fraction(int(u == v)) for v in range(n - lo)] for u in range(n - lo)]
    last = None
    for i, j, c, *last in _descent(*_int_cells(*parts), n, lo):
        for row in b:  # B <- B (I + c E_ji): column i gains c times column j
            row[i - lo] += c * row[j - lo]
    if last is None:
        return None
    cells, scale = last
    return [Matrix.from_entries(t.rows, t.cols, {
        (k - k0, (a - a0) * wb + b - b0): x * scale.denominator
        for (a, b, k), x in cells.items() if a0 <= a < a0 + t.cols // wb}, den=scale.numerator)
        for t, a0, b0, k0, wb in parts], Matrix.from_rows(b)


def sparse_basis(g: LeibnizAlgebra, m: Representation | LieModule | None = None) -> tuple:
    """(h, S, m', T): g in the basis f_i = sum_a S[a][i] e_a that the greedy
    descent of _descent finds, so that S [x, y]_h = [S x, S y]_g, and m, a
    module over g, carried along S and put in the basis
    f'_u = sum_v T[v][u] f_v that the descent finds when it moves only the
    module's basis, run on the actions as one bilinear map on g + m, so
    that T L' = L (S (x) T) and T R' = R (T (x) S).  A module over g's Lie
    quotient is searched as the left action L of its lift
    (lie_module_lift), whose right action is -L swapped, and read back on
    h's Lie quotient, A' = L' (sigma_h (x) I).  h keeps the basis names
    and the convention of g, m' the basis names of m.  With no move to
    take, h is g and S the identity, and then m' is m and T the identity
    if the module's search takes none either; without m, m' and T are
    None.  The basis-invariant numbers of h and m' are those of g and m."""
    n = g.dim
    found = _sparse_tables(n, 0, (g.structure, 0, 0, 0, n))
    h, s = (g, Matrix.identity(n)) if found is None else (
        LeibnizAlgebra(n, g.basis_names, *found[0], g.convention), found[1])
    if m is None:
        return h, s, None, None
    d, lie, eye = m.dim, isinstance(m, LieModule), Matrix.identity(m.dim)
    # the actions along S, L (S (x) I) and R (I (x) S), [x, m] at the
    # indices (x, n + m, n + value) and [m, x] at (n + m, x, n + value); a
    # Lie module's lift has L = A (pi_g (x) I), so L (S (x) I) = A (pi_g S (x) I)
    if lie:
        _check_width(m, g.quotient_data.quotient.dim)
        parts = [(m.action @ _kron(g.quotient_data.projection @ s, eye), 0, n, n, d)]
    else:
        parts = [(m.left_action if h is g else m.left_action @ _kron(s, eye), 0, n, n, d),
                 (m.right_action if h is g else m.right_action @ _kron(eye, s), n, 0, n, n)]
    found = _sparse_tables(n + d, n, *parts)
    if found is None and h is g:
        return h, s, m, eye
    tables, t = ([table for table, *_ in parts], eye) if found is None else found
    if lie:
        return h, s, LieModule(d, tables[0] @ _kron(h.quotient_data.section, eye)), t
    return h, s, Representation(d, m.basis_names, *tables), t


def is_isomorphism(s: Matrix, h: LeibnizAlgebra | LieAlgebra, g: LeibnizAlgebra | LieAlgebra,
                   t: Matrix | None = None, new: Representation | LieModule | None = None,
                   old: Representation | LieModule | None = None) -> bool:
    """Whether s is invertible and S [x, y]_h = [S x, S y]_g, that is, s
    carries h isomorphically onto g; given t, also whether t is invertible
    and carries new, a module over h, onto old, a module over g, along s:
    T L' = L (S (x) T) and T R' = R (T (x) S).  Modules over the Lie
    quotients are compared through their lifts, which also shows new to be
    the module its lift descends to, as pi_h is onto: the right action of
    a lift is its left one negated and swapped, so only the left ones are
    compared, T A' (pi_h (x) I) = A (pi_g (x) I)(S (x) T) = A (pi_g S (x) T)."""
    n = g.dim
    if (s.rows, s.cols, h.dim) != (n, n, n) or rank(s) < n:
        return False
    if s @ h.structure != g.structure @ _kron(s, s):
        return False
    if t is None:
        return True
    d = old.dim
    if (t.rows, t.cols, new.dim) != (d, d, d) or rank(t) < d:
        return False
    if isinstance(old, LieModule):
        return (t @ new.action @ _kron(h.quotient_data.projection, Matrix.identity(d))
                == old.action @ _kron(g.quotient_data.projection @ s, t))
    return (t @ new.left_action == old.left_action @ _kron(s, t)
            and t @ new.right_action == old.right_action @ _kron(t, s))
