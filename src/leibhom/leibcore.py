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
bracket a column permutation, and the Lie axioms and the descent to the
Lie quotient matrix identities, nonzero where they fail.

A module m over g is read with g as the int cells {(a, b, k): x} of the
semidirect product g ⋉ m (`_semidirect`), a Leibniz algebra exactly when
m is a module over g (Loday-Pirashvili 1993); the Leibniz identity, of
g and of g ⋉ m, is read off the cells (`_leibniz_violations`).

The structure constants depend on the basis, and the cost of a complex
follows their count: `sparse_basis` looks for an isomorphic algebra with
fewer of them by exact elementary changes of basis, then runs the same
search on the cells of g ⋉ m valued in m, carried along; `is_isomorphism`
checks both changes as one isomorphism of the semidirect products.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping, Sequence
from functools import cached_property
from math import gcd, lcm

from .exactla import (
    Matrix,
    Subspace,
    _canon,
    _direct_sum,
    _Frozen,
    _kron,
    _lincomb,
    _matrix,
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


def _leibniz_violations(cells: dict, n: int, lo: int = 0) -> list[tuple[int, int, int]]:
    """The basis triples (a, b, c) with an index at lo or above, in order,
    where the left Leibniz identity [[a,b],c] = [a,[b,c]] - [b,[a,c]] fails
    for the bracket on k^n of the int cells {(a, b, k): x}: a cell [p,q] at
    k meets the cells of first argument k in [[p,q],c] and those of second
    argument k in [e,[p,q]] and [p,[e,q]]; the defect at (a, b, c) and e_v
    is kept at ((a n + b) n + c) n + v."""
    n2, n3 = n * n, n * n * n
    # by k, the cells a cell at k meets: all, and those whose other index is >= lo
    outer, inner, outer_lo, inner_lo = ([[] for _ in range(n)] for _ in range(4))
    for (a, b, v), y in cells.items():
        outer[a].append((b * n + v, y))
        inner[b].append((a * n3 + v, a * n2 + v, y))
        if b >= lo:
            outer_lo[a].append(outer[a][-1])
        if a >= lo:
            inner_lo[b].append(inner[b][-1])
    defect: dict = defaultdict(int)
    for (p, q, k), x in cells.items():
        low = p < lo and q < lo
        at = p * n3 + q * n2
        for o, y in (outer_lo if low else outer)[k]:
            defect[at + o] += x * y
        at2, at3 = p * n2 + q * n, p * n3 + q * n
        for o2, o3, y in (inner_lo if low else inner)[k]:
            y *= x
            defect[at2 + o2] -= y
            defect[at3 + o3] += y
    return [(t // n2, t // n % n, t % n) for t in sorted({key // n for key, x in defect.items() if x})]


def check_leibniz(g: LeibnizAlgebra) -> tuple[tuple[int, int, int], ...]:
    """All basis triples (i, j, k) violating the Leibniz identity of g's convention."""
    # the right identity of g at (i, j, k) is the left identity of opposite(g) at (k, j, i)
    h = g if g.convention == "left" else opposite(g)
    bad = _leibniz_violations(_semidirect(h.structure)[0], g.dim)
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
    """Violations of the three compatibility identities, tagged mxy/xmy/xym
    by the slot of m: the left Leibniz identity of g ⋉ m at the triples
    with an index in m, such as [[m,x],y] = [m,[x,y]] - [x,[m,y]]; it
    holds at those with two, as [u, v] = 0."""
    n, bad = g.dim, []
    cells, _ = _semidirect(g.structure, *_actions(g, m))
    for triple in _leibniz_violations(cells, n + m.dim, n):
        slot = [v >= n for v in triple].index(True)
        i, j = (v for v in triple if v < n)
        bad.append((triple[slot] - n, i, j, ("mxy", "xmy", "xym")[slot]))
    bad.sort()  # by (m, x, y), then in the order mxy, xmy, xym
    return tuple((tag, i, j, a) if tag == "xym" else (tag, a, i, j) for a, i, j, tag in bad)


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
    """Triples (i, j, a) where [x,y].m = x.(y.m) - y.(x.m) fails: the left
    Leibniz identity of h ⋉ m at (x, y, m), the only triples with an index
    in m where it can fail when m has no right action."""
    n, (cells, _) = h.dim, _semidirect(h.structure, *_actions(h, mod))
    return tuple((i, j, a - n) for i, j, a in _leibniz_violations(cells, n + mod.dim, n) if a >= n)


def adjoint_lie_module(h: LieAlgebra) -> LieModule:
    return LieModule(h.dim, h.structure)


def _actions(g: LeibnizAlgebra | LieAlgebra, m: Representation | LieModule) -> tuple[Matrix, ...]:
    """The tables of [x, u] and, if m has one, of [u, x] for a module m over
    g.  A LieModule over a Leibniz algebra is one over g's Lie quotient and
    acts through it, [x, u] = pr(x).u, with no [u, x]."""
    if isinstance(m, Representation):
        if m.left_action.cols != g.dim * m.dim or m.right_action.cols != m.dim * g.dim:
            raise ValueError("representation tables do not match the algebra dimension")
        return m.left_action, m.right_action
    if isinstance(g, LieAlgebra):
        _check_width(m, g.dim)
        return (m.action,)
    _check_width(m, g.quotient_data.quotient.dim)
    return (m.action @ _kron(g.quotient_data.projection, Matrix.identity(m.dim)),)


def lie_module_lift(g: LeibnizAlgebra, mod: LieModule) -> Representation:
    """Representation of g induced by a module over g.quotient_data.

    [x, m] = pr(x).m and [m, x] = -pr(x).m, which satisfies all three
    compatibility identities.
    """
    (left,), d = _actions(g, mod), mod.dim
    right = _lincomb((-1, left @ _swap(d, g.dim)))
    return Representation(d, tuple(f"m{i}" for i in range(d)), left, right)


def _semidirect(t: Matrix, *actions: Matrix) -> tuple[dict, int]:
    """(cells, scale) of g ⋉ m, g at the indices 0..n-1 and m at n.., from
    the table t of g's bracket and the checked tables of [x, u] and maybe
    [u, x], [u, v] being 0: the int cells {(a, b, k): x}, [e_a, e_b] having
    x / scale at e_k.  With no actions, those of g alone."""
    n, d = t.rows, actions[0].rows if actions else 0
    tables = (t, *actions)
    scale = lcm(*[den for table in tables for den, _ in table.int_rows])
    # column c of a table holds [e_(a0 + c // w), e_(b0 + c % w)], row r e_(k0 + r)
    return {(a0 + c // w, b0 + c % w, k): x * (scale // den)
            for table, (w, a0, b0, k0) in zip(tables, ((n, 0, 0, 0), (d, 0, n, n), (n, n, 0, n)))
            for k, (den, row) in enumerate(table.int_rows, k0) for c, x in row}, scale


def _split(cells: dict, den: int, n: int, d: int = 0) -> list[Matrix]:
    """The inverse of _semidirect: the tables of [x, y], [x, u] and [u, x]
    in the cells of g ⋉ m, x / den, g of dimension n and m of dimension d;
    with d = 0 the first is the table of any bilinear map on k^n."""
    rows = [[{} for _ in range(r)] for r in (n, d, d)]
    for (a, b, k), x in cells.items():
        if a < n and b < n:
            rows[0][k][a * n + b] = x
        elif a < n:
            rows[1][k - n][a * d + b - n] = x
        elif b < n:
            rows[2][k - n][(a - n) * n + b] = x
    return [_int_table(side, den, n * len(side)) for side in rows]  # n x nn, d x nd, d x dn


def _int_table(rows: list[dict], den: int, cols: int) -> Matrix:
    """The Matrix whose row i holds x / den at column j for each item j: x
    of rows[i], in canonical int rows written directly."""
    return _matrix(len(rows), cols, tuple(
        _canon(den, sorted(item for item in row.items() if item[1])) for row in rows))


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


def _descent(cells: dict, scale: int, n: int, lo: int = 0):
    """Yield (i, j, (num, den), cells, (p, q)) for each move
    e_i <- e_i + (num/den) e_j, lo <= i, j < n, of the greedy descent on
    the number of nonzero constants of a bilinear map on k^n, given as the
    ints cells {(a, b, k): x}, [e_a, e_b] having x / scale at e_k: at most
    SPARSE_STEPS moves, each one lowering the count, each yield in the
    basis the moves so far give, [e_a, e_b] having x q / p at e_k."""
    # a table of rank r has at least r nonzero entries, and a change of
    # basis keeps its rank (dim [g, g] for a bracket): no move goes below
    bound = rank(_split(cells, 1, n)[0])
    p, q = scale, 1
    for _ in range(SPARSE_STEPS):
        move = None if len(cells) <= bound else _best_move(cells, n, lo)
        if move is None:
            return
        i, j, num, den = move
        moved = {key: v for key, p3 in _moved(cells, _by_index(cells, n), i, j, True).items()
                 if (v := _value(p3, num, den))}
        content = gcd(*moved.values())
        cells = {key: v // content for key, v in moved.items()}
        p, q = p * den ** 3, q * content  # moved holds den^3 times the new constants
        yield i, j, (num, den), cells, (p, q)


def _sparse(cells: dict, scale: int, n: int, lo: int = 0) -> tuple | None:
    """(cells', den, B): the int cells of a bilinear map on k^n, x / scale,
    in the basis where the descent of _descent on them ends, x / den, B
    the change of basis it takes, f_(lo+u) = sum_v B[v][u] e_(lo+v); None
    when it takes no move."""
    k = n - lo
    moves = list(_descent(cells, scale, n, lo))
    if not moves:
        return None
    basis = Matrix.identity(k)
    for i, j, (num, den), _, _ in moves:  # B <- B (I + c E_ji)
        step = [(1, ((r, 1),)) for r in range(k)]
        step[j - lo] = _canon(den, sorted({j - lo: den, i - lo: num}.items()))
        basis = basis @ _matrix(k, k, tuple(step))
    *_, cells, (p, q) = moves[-1]
    return {key: x * q for key, x in cells.items()}, p, basis


def sparse_basis(g: LeibnizAlgebra, m: Representation | LieModule | None = None) -> tuple:
    """(h, S, m', T): g in the basis f_i = sum_a S[a][i] e_a that the greedy
    descent of _descent finds, so that S [x, y]_h = [S x, S y]_g, and m, a
    module over g, carried along S and put in the basis
    f'_u = sum_v T[v][u] f_v that the descent finds on the cells of g ⋉ m
    in m, moving only the module's basis: T L' = L (S (x) T) and
    T R' = R (T (x) S).  A module over g's Lie quotient is read back on h's,
    A' = L' (sigma_h (x) I).  h keeps the basis names and the convention of
    g, m' the basis names of m.  With no move to take, h is g and S the
    identity, and then m' is m and T the identity if the module's search
    takes none either; without m, m' and T are None.  The basis-invariant
    numbers of h and m' are those of g and m."""
    n = g.dim
    found = _sparse(*_semidirect(g.structure), n)
    h, s = (g, Matrix.identity(n)) if found is None else (
        LeibnizAlgebra(n, g.basis_names, _split(*found[:2], n)[0], g.convention), found[2])
    if m is None:
        return h, s, None, None
    d, eye = m.dim, Matrix.identity(m.dim)
    # the actions carried along S: L (S (x) I) and R (I (x) S)
    acts = _actions(g, m)
    if h is not g:
        acts = (acts[0] @ _kron(s, eye), *(right @ _kron(eye, s) for right in acts[1:]))
    cells, scale = _semidirect(h.structure, *acts)
    found = _sparse({key: x for key, x in cells.items() if key[2] >= n}, scale, n + d, n)
    if found is None and h is g:
        return h, s, m, eye
    (left, *right), t = (acts, eye) if found is None else (_split(*found[:2], n, d)[1:], found[2])
    if isinstance(m, LieModule):
        return h, s, LieModule(d, left @ _kron(h.quotient_data.section, eye)), t
    return h, s, Representation(d, m.basis_names, left, *right), t


def is_isomorphism(s: Matrix, h: LeibnizAlgebra | LieAlgebra, g: LeibnizAlgebra | LieAlgebra,
                   t: Matrix | None = None, new: Representation | LieModule | None = None,
                   old: Representation | LieModule | None = None) -> bool:
    """Whether s is invertible and S [x, y]_h = [S x, S y]_g; given t, also
    whether t is invertible and U = S (+) T carries h ⋉ new onto g ⋉ old,
    so T L' = L (S (x) T) and T R' = R (T (x) S).  A LieModule over a Lie
    algebra enters by its table, and over a Leibniz algebra by the left
    action of its lift, which shows new to be the module its lift descends
    to, as pi_h is onto: T A' (pi_h (x) I) = A (pi_g S (x) T)."""
    n = g.dim
    if (s.rows, s.cols, h.dim) != (n, n, n) or rank(s) < n:
        return False
    if t is None:
        return s @ h.structure == g.structure @ _kron(s, s)
    if (t.rows, t.cols, new.dim) != (old.dim,) * 3 or rank(t) < old.dim:
        return False
    u, w = _direct_sum(s, t), n + old.dim
    # [U x, U y] from the cells of g ⋉ old, over den dd^2, dd the lcm of U's denominators
    cells, den = _semidirect(g.structure, *_actions(g, old))
    dd = lcm(*[da for da, _ in u.int_rows])
    rows = [[(i, x * (dd // da)) for i, x in row] for da, row in u.int_rows]
    moved = [defaultdict(int) for _ in range(w)]
    for (a, b, k), x in cells.items():
        for i, y in rows[a]:
            xy, iw, row = x * y, i * w, moved[k]
            for j, z in rows[b]:
                row[iw + j] += xy * z
    return (u @ _split(*_semidirect(h.structure, *_actions(h, new)), w)[0]
            == _int_table(moved, den * dd * dd, w * w))
