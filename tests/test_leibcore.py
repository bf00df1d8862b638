import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibhom.leibcore import (
    IllDefinedQuotient,
    LeibnizAlgebra,
    LieAlgebra,
    LieModule,
    Representation,
    adjoint_lie_module,
    adjoint_representation,
    check_leibniz,
    check_lie,
    check_lie_module,
    check_representation,
    kernel_ideal,
    lie_module_lift,
    lie_quotient,
    opposite,
    opposite_representation,
    symmetrization,
    tensor3,
    trivial_representation,
)

from conftest import (
    CORPUS,
    LIE_CORPUS,
    bilinear,
    conjugate,
    dense,
    random_algebra,
    representations_for,
    unimodular,
)


def test_corpus_satisfies_left_identity(corpus):
    for name, g in corpus.items():
        assert check_leibniz(g) == (), name


def test_square_bracket_violation_located():
    bad = LeibnizAlgebra.from_brackets(["x"], {(0, 0): {0: 1}})
    violations = check_leibniz(bad)
    assert (0, 0, 0) in violations


def test_check_lie_catches_symmetric_bracket():
    # [x,x] = y is fine as Leibniz but not anti-symmetric
    h = LieAlgebra(2, ("x", "y"), CORPUS["A2"].structure)
    assert check_lie(h) != ()


def test_opposite_is_an_involution(corpus):
    for g in corpus.values():
        assert opposite(opposite(g)).structure == g.structure


def test_opposite_of_one_sided_algebra_satisfies_right_identity():
    g = CORPUS["hemi2"]
    gop = opposite(g)
    # [y, x]_op = [x, y], so the op structure moves the bracket to (1, 0)
    table = dense(gop.structure, 2, 2)
    assert table[1][0] == (Fraction(0), Fraction(1))
    assert table[0][1] == (Fraction(0), Fraction(0))


def test_kernel_ideal_of_a2():
    g = CORPUS["A2"]
    ann = kernel_ideal(g)
    assert ann.dim == 1
    assert ann.coords((0, 1)) is not None


def test_kernel_ideal_via_polarization():
    # [a+b, a+b] lands in the span even when no basis square does
    g = LeibnizAlgebra.from_brackets(
        ["a", "b", "c"], {(0, 1): {2: 1}, (1, 0): {2: 1}})
    assert check_leibniz(g) == ()
    ann = kernel_ideal(g)
    assert ann.coords((0, 0, 2)) is not None


def test_lie_quotient_shapes(corpus):
    for name, g in corpus.items():
        q = lie_quotient(g)
        assert q.quotient.dim + q.ann.dim == g.dim, name
        assert check_lie(q.quotient) == (), name
        # projection kills exactly the squares' span
        for col in zip(*q.ann.basis.entries):
            assert all(c == 0 for c in q.projection.apply(col)), name


def test_lie_quotient_of_a2_names():
    q = lie_quotient(CORPUS["A2"])
    assert q.quotient.dim == 1
    assert q.quotient.basis_names == ("x~",)


def test_lie_quotient_of_lie_algebra_is_itself():
    g = CORPUS["r2"]
    q = lie_quotient(g)
    assert q.ann.dim == 0
    assert q.quotient.structure == g.structure


def test_trivial_and_adjoint_representations_valid(corpus):
    for name, g in corpus.items():
        assert check_representation(g, trivial_representation(g, 2)) == (), name
        assert check_representation(g, adjoint_representation(g)) == (), name


def test_representation_axiom_violation_tagged():
    g = CORPUS["r2"]
    # both generators acting as 1 on the left cannot square with
    # [a,b] = b: the bracket acts as 1 but the commutator of the two
    # actions vanishes
    left = tensor3(2, 1, 1, {(0, 0, 0): Fraction(1), (1, 0, 0): Fraction(1)})
    right = tensor3(1, 2, 1, {})
    from leibhom.leibcore import Representation
    rep = Representation(1, ("m",), left, right)
    bad = check_representation(g, rep)
    assert bad != ()
    assert {t[0] for t in bad} == {"xym"}


def test_opposite_representation_round_trip():
    # converting a right-convention pair back to the left convention must
    # land on a valid module; double conversion is the identity
    g = CORPUS["hemi2"]
    rep = adjoint_representation(g)
    gop = opposite(g)
    rep_op = opposite_representation(g, rep)
    back = opposite_representation(gop, rep_op)
    assert back.left_action == rep.left_action
    assert back.right_action == rep.right_action
    assert check_representation(opposite(gop), back) == ()


def test_symmetrization_of_adjoint_is_squares_span():
    g = CORPUS["A2"]
    anti, qdim, proj = symmetrization(adjoint_representation(g))
    # [x,m]+[m,x] spans the same line the squares do
    assert anti.dim == 1
    assert anti.coords((0, 1)) is not None
    assert qdim == 1
    assert proj.rows == 1 and proj.cols == 2


def test_symmetrization_of_lift_is_zero():
    g = CORPUS["A2"]
    mod = LieModule(1, tensor3(1, 1, 1, {}))
    rep = lie_module_lift(g, mod)
    anti, qdim, _ = symmetrization(rep)
    assert anti.dim == 0
    assert qdim == 1


def test_lie_module_lift_valid_for_corpus(corpus):
    for name, g in corpus.items():
        reps = representations_for(g)
        for rname, rep in reps.items():
            assert check_representation(g, rep) == (), (name, rname)


def test_lift_actions_are_opposite():
    g = CORPUS["r2"]
    q = lie_quotient(g)
    mod = adjoint_lie_module(q.quotient)
    rep = lie_module_lift(g, mod)
    left = dense(rep.left_action, g.dim, rep.dim)
    right = dense(rep.right_action, rep.dim, g.dim)
    for i in range(g.dim):
        for j in range(rep.dim):
            lv = left[i][j]
            rv = right[j][i]
            assert tuple(-c for c in lv) == rv


def test_check_lie_module_detects_wrong_action():
    h = LIE_CORPUS["r2"]
    # b acting as 1 is not a character: [a,b] = b must act as a commutator
    act = tensor3(2, 1, 1, {(1, 0, 0): Fraction(1)})
    assert check_lie_module(h, LieModule(1, act)) != ()


@pytest.mark.parametrize("call, r", [
    (lambda mod: lie_module_lift(CORPUS["A2"], mod), 1),  # A2's Lie quotient is 1-dim
    (lambda mod: check_lie_module(LIE_CORPUS["r2"], mod), 2),
], ids=["lie_module_lift", "check_lie_module"])
def test_wrong_width_lie_module_is_named(call, r):
    # heis3's adjoint module: 3-dim, with a 3 x 9 action table
    message = (f"a 3-dim module over a {r}-dim Lie algebra needs a 3 x {3 * r} "
               "action table, got 3 x 9")
    with pytest.raises(ValueError) as exc:
        call(adjoint_lie_module(LIE_CORPUS["heis3"]))
    assert str(exc.value) == message


# a table of the wrong shape would give wrong Betti numbers, not an error
@pytest.mark.parametrize("build, message", [
    (lambda: LeibnizAlgebra(3, ("x", "y"), CORPUS["A2"].structure),
     "basis_names length does not match dim"),
    (lambda: LeibnizAlgebra(3, ("x", "y", "t"), CORPUS["A2"].structure),
     "a 3-dim algebra needs a 3 x 9 structure table, got 2 x 4"),
    (lambda: LieAlgebra(2, ("p", "q"), LIE_CORPUS["heis3"].structure),
     "a 2-dim algebra needs a 2 x 4 structure table, got 3 x 9"),
    (lambda: Representation(2, ("u", "v"), CORPUS["heis3"].structure, CORPUS["heis3"].structure),
     "a 2-dim module needs 2 rows in left_action, got 3"),
    (lambda: Representation(2, ("u", "v"), tensor3(3, 2, 2, {}), tensor3(2, 3, 3, {})),
     "a 2-dim module needs 2 rows in right_action, got 3"),
    (lambda: Representation(3, ("u",), CORPUS["heis3"].structure, CORPUS["heis3"].structure),
     "basis_names length does not match dim"),
], ids=["basis names first", "leibniz", "lie", "left action", "right action",
        "module basis names"])
def test_wrong_shape_table_is_refused(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_quotient_action_descends():
    # the Lie quotient acts on g itself through the projection:
    # for A2 the class of x sends x to [x,x] = y
    q = lie_quotient(CORPUS["A2"])
    vec = bilinear(dense(q.action_on_g, 1, 2), (1,), (1, 0))
    assert vec == (Fraction(0), Fraction(1))


def test_conjugation_preserves_validity_and_ann_dim():
    rng = random.Random(7)
    for _ in range(25):
        base = rng.choice(list(CORPUS.values()))
        p, pinv = unimodular(rng, base.dim)
        g = conjugate(base, p, pinv)
        assert check_leibniz(g) == ()
        assert kernel_ideal(g).dim == kernel_ideal(base).dim


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_random_algebras_pass_axioms(seed):
    g = random_algebra(random.Random(seed))
    assert check_leibniz(g) == ()
    q = lie_quotient(g)
    assert check_lie(q.quotient) == ()


def test_ill_defined_quotient_raised_for_invalid_input():
    # squares span only y, but [y,x] = z escapes it, so the bracket cannot
    # descend; [x,y] = -z keeps the polarized span from swallowing z
    bad = LeibnizAlgebra.from_brackets(
        ["x", "y", "z"], {(0, 0): {1: 1}, (1, 0): {2: 1}, (0, 1): {2: -1}})
    assert check_leibniz(bad) != ()
    with pytest.raises(IllDefinedQuotient):
        lie_quotient(bad)


# ---------------------------------------------------------------------------
# the dense Fraction checkers, kept as oracles for the library's sparse
# integer ones: same identities, one unit vector and one bilinear
# evaluation at a time


def _unit(n, i):
    return tuple(Fraction(int(t == i)) for t in range(n))


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def _add(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def oracle_check_leibniz(g):
    bad = []
    n = g.dim
    t = dense(g.structure, n, n)
    for i in range(n):
        for j in range(n):
            bij = t[i][j]
            for k in range(n):
                if g.convention == "left":
                    defect = _sub(bilinear(t, bij, _unit(n, k)), bilinear(t, _unit(n, i), t[j][k]))
                    defect = _add(defect, bilinear(t, _unit(n, j), t[i][k]))
                else:
                    defect = _sub(bilinear(t, _unit(n, i), t[j][k]), bilinear(t, bij, _unit(n, k)))
                    defect = _add(defect, bilinear(t, t[i][k], _unit(n, j)))
                if any(defect):
                    bad.append((i, j, k))
    return tuple(bad)


def oracle_check_lie(h):
    bad = []
    n = h.dim
    t = dense(h.structure, n, n)
    for i in range(n):
        for j in range(n):
            if any(_add(t[i][j], t[j][i])):
                bad.append(("antisymmetry", i, j))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                s = bilinear(t, _unit(n, i), t[j][k])
                s = _add(s, bilinear(t, _unit(n, j), t[k][i]))
                s = _add(s, bilinear(t, _unit(n, k), t[i][j]))
                if any(s):
                    bad.append(("jacobi", i, j, k))
    return tuple(bad)


def oracle_check_representation(g, m):
    bad = []
    n, d = g.dim, m.dim
    t = dense(g.structure, n, n)
    left, right = dense(m.left_action, n, d), dense(m.right_action, d, n)
    gu = lambda i: _unit(n, i)
    mu = lambda a: _unit(d, a)
    for a in range(d):
        for i in range(n):
            for j in range(n):
                lhs = bilinear(right, bilinear(right, mu(a), gu(i)), gu(j))
                rhs = _sub(bilinear(right, mu(a), t[i][j]),
                           bilinear(left, gu(i), bilinear(right, mu(a), gu(j))))
                if lhs != rhs:
                    bad.append(("mxy", a, i, j))
                lhs = bilinear(right, bilinear(left, gu(i), mu(a)), gu(j))
                rhs = _sub(bilinear(left, gu(i), bilinear(right, mu(a), gu(j))),
                           bilinear(right, mu(a), t[i][j]))
                if lhs != rhs:
                    bad.append(("xmy", a, i, j))
                lhs = bilinear(left, t[i][j], mu(a))
                rhs = _sub(bilinear(left, gu(i), bilinear(left, gu(j), mu(a))),
                           bilinear(left, gu(j), bilinear(left, gu(i), mu(a))))
                if lhs != rhs:
                    bad.append(("xym", i, j, a))
    return tuple(bad)


def oracle_check_lie_module(h, mod):
    bad = []
    n, d = h.dim, mod.dim
    t, act = dense(h.structure, n, n), dense(mod.action, n, d)
    for i in range(n):
        for j in range(n):
            for a in range(d):
                lhs = bilinear(act, t[i][j], _unit(d, a))
                rhs = _sub(bilinear(act, _unit(n, i), bilinear(act, _unit(n, j), _unit(d, a))),
                           bilinear(act, _unit(n, j), bilinear(act, _unit(n, i), _unit(d, a))))
                if lhs != rhs:
                    bad.append((i, j, a))
    return tuple(bad)


SCALARS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))

# valid structures to perturb, so that some draws hold and others fail at
# a few triples only
VALID_REPS = [(g, rep) for g in CORPUS.values() for rep in representations_for(g).values()]
VALID_LIE_MODULES = [(h, adjoint_lie_module(h)) for h in LIE_CORPUS.values()]


@st.composite
def tensors(draw, a, b, c, base=None):
    """A random a x b x c table with denominators, or the table base with
    up to two entries redrawn."""
    keys = st.tuples(st.integers(0, a - 1), st.integers(0, b - 1), st.integers(0, c - 1))
    entries = {} if base is None else {
        (i, j, k): x for i, plane in enumerate(dense(base, a, b)) for j, vec in enumerate(plane)
        for k, x in enumerate(vec) if x}
    entries.update(draw(st.dictionaries(keys, SCALARS, max_size=a * b * c if base is None else 2)))
    return tensor3(a, b, c, entries)


def _names(n):
    return tuple(f"e{i}" for i in range(n))


@settings(max_examples=120, deadline=None)
@given(st.data(), st.sampled_from(["left", "right"]))
def test_check_leibniz_matches_dense_oracle(data, convention):
    g0 = data.draw(st.sampled_from([None, *CORPUS.values()]))
    if g0 is None:
        n = data.draw(st.integers(1, 3))
        t = data.draw(tensors(n, n, n))
    else:
        n = g0.dim
        base = g0 if convention == "left" else opposite(g0)
        t = data.draw(tensors(n, n, n, base.structure))
    g = LeibnizAlgebra(n, _names(n), t, convention)
    assert check_leibniz(g) == oracle_check_leibniz(g)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_check_lie_matches_dense_oracle(data):
    h0 = data.draw(st.sampled_from([None, *LIE_CORPUS.values()]))
    n = data.draw(st.integers(1, 3)) if h0 is None else h0.dim
    t = data.draw(tensors(n, n, n, None if h0 is None else h0.structure))
    h = LieAlgebra(n, _names(n), t)
    assert check_lie(h) == oracle_check_lie(h)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_check_representation_matches_dense_oracle(data):
    pair = data.draw(st.sampled_from([None, *VALID_REPS]))
    if pair is None:
        n, d = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        g = LeibnizAlgebra(n, _names(n), data.draw(tensors(n, n, n)))
        left, right = data.draw(tensors(n, d, d)), data.draw(tensors(d, n, d))
    else:
        g, rep0 = pair
        n, d = g.dim, rep0.dim
        left = data.draw(tensors(n, d, d, rep0.left_action))
        right = data.draw(tensors(d, n, d, rep0.right_action))
    rep = Representation(d, _names(d), left, right)
    assert check_representation(g, rep) == oracle_check_representation(g, rep)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_check_lie_module_matches_dense_oracle(data):
    pair = data.draw(st.sampled_from([None, *VALID_LIE_MODULES]))
    if pair is None:
        n, d = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        h = LieAlgebra(n, _names(n), data.draw(tensors(n, n, n)))
        action = data.draw(tensors(n, d, d))
    else:
        h, mod0 = pair
        n, d = h.dim, mod0.dim
        action = data.draw(tensors(n, d, d, mod0.action))
    mod = LieModule(d, action)
    assert check_lie_module(h, mod) == oracle_check_lie_module(h, mod)
