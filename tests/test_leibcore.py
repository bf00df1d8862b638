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

from conftest import CORPUS, conjugate, random_algebra, representations_for, unimodular


def test_corpus_satisfies_left_identity(corpus):
    for name, g in corpus.items():
        assert check_leibniz(g) == (), name


def test_square_bracket_violation_located():
    bad = LeibnizAlgebra.from_brackets(["x"], {(0, 0): {0: 1}})
    violations = check_leibniz(bad)
    assert (0, 0, 0) in violations


def test_check_lie_catches_symmetric_bracket():
    # [x,x] = y is fine as Leibniz but not anti-symmetric
    h = LieAlgebra(2, ("x", "y"),
                   LeibnizAlgebra.from_brackets(["x", "y"], {(0, 0): {1: 1}}).structure)
    assert check_lie(h) != ()


def test_opposite_is_an_involution(corpus):
    for g in corpus.values():
        assert opposite(opposite(g)).structure == g.structure


def test_opposite_of_one_sided_algebra_satisfies_right_identity():
    g = CORPUS["hemi2"]
    gop = opposite(g)
    # [y, x]_op = [x, y], so the op structure moves the bracket to (1, 0)
    assert gop.bracket_basis(1, 0) == (Fraction(0), Fraction(1))
    assert gop.bracket_basis(0, 1) == (Fraction(0), Fraction(0))


def test_kernel_ideal_of_a2():
    g = CORPUS["A2"]
    ann = kernel_ideal(g)
    assert ann.dim == 1
    assert ann.contains((0, 1))


def test_kernel_ideal_via_polarization():
    # [a+b, a+b] lands in the span even when no basis square does
    g = LeibnizAlgebra.from_brackets(
        ["a", "b", "c"], {(0, 1): {2: 1}, (1, 0): {2: 1}})
    assert check_leibniz(g) == ()
    ann = kernel_ideal(g)
    assert ann.contains((0, 0, 2))


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
    assert anti.contains((0, 1))
    assert qdim == 1
    assert proj.rows == 1 and proj.cols == 2


def test_symmetrization_of_lift_is_zero():
    g = CORPUS["A2"]
    q = lie_quotient(g)
    mod = LieModule(1, tensor3(1, 1, 1, {}))
    rep = lie_module_lift(g, q, mod)
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
    rep = lie_module_lift(g, q, mod)
    for i in range(g.dim):
        for j in range(rep.dim):
            lv = rep.left_action[i][j]
            rv = rep.right_action[j][i]
            assert tuple(-c for c in lv) == rv


def test_check_lie_module_detects_wrong_action():
    h = LieAlgebra.from_brackets(["a", "b"], {(0, 1): {1: 1}, (1, 0): {1: -1}})
    # b acting as 1 is not a character: [a,b] = b must act as a commutator
    act = tensor3(2, 1, 1, {(1, 0, 0): Fraction(1)})
    assert check_lie_module(h, LieModule(1, act)) != ()


def test_quotient_action_descends():
    # the Lie quotient acts on g itself through the projection:
    # for A2 the class of x sends x to [x,x] = y
    from leibhom.leibcore import bilinear
    q = lie_quotient(CORPUS["A2"])
    vec = bilinear(q.action_on_g, (1,), (1, 0))
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
