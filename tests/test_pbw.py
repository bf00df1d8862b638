import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from leibhom.dgla import cone, minimal_envelope
from leibhom.pbw import PBWAlgebra

from conftest import CORPUS, LIE_CORPUS


def test_odd_square_rewrites_to_half_bracket():
    # in the envelope of [x,x] = y the square of the letter x becomes
    # exactly the degree-2 hat generator
    alg = PBWAlgebra(minimal_envelope(CORPUS["A2"]))
    x = (1, 0)
    nf = alg.normal_form({(x, x): Fraction(1)})
    assert nf == {((2, 0),): Fraction(1)}


def test_odd_swap_picks_up_sign_and_bracket():
    alg = PBWAlgebra(minimal_envelope(CORPUS["A2"]))
    x, y = (1, 0), (1, 1)
    nf = alg.normal_form({(y, x): Fraction(1)})
    # [x,y] + [y,x] = 0 here, so only the sign survives
    assert nf == {(x, y): Fraction(-1)}


def test_degree_zero_letters_commute_through_brackets():
    alg = PBWAlgebra(cone(LIE_CORPUS["r2"]))
    a, b = (0, 0), (0, 1)
    nf = alg.normal_form({(b, a): Fraction(1)})
    # ba = ab + [b,a] = ab - b  (with [a,b] = b in degree 0)
    assert nf == {(a, b): Fraction(1), (b,): Fraction(-1)}


def test_normal_words_are_fixed_points():
    alg = PBWAlgebra(minimal_envelope(CORPUS["A2"]))
    word = ((1, 0), (1, 1), (2, 0))
    assert alg.is_normal(word)
    assert alg.normal_form({word: Fraction(2)}) == {word: Fraction(2)}


def envelopes():
    out = []
    for name in ("A2", "r2", "heis3", "A2+k"):
        out.append(PBWAlgebra(minimal_envelope(CORPUS[name])))
    out.append(PBWAlgebra(cone(LIE_CORPUS["heis3"])))
    return out


ALGS = envelopes()


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_strategies_agree(data):
    alg = data.draw(st.sampled_from(ALGS))
    letters = alg.letters()
    word = tuple(data.draw(st.sampled_from(letters))
                 for _ in range(data.draw(st.integers(0, 5))))
    poly = {word: Fraction(1)}
    left = alg.normal_form(poly, strategy="leftmost")
    right = alg.normal_form(poly, strategy="rightmost")
    assert left == right
    for w in left:
        assert alg.is_normal(w)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_normal_form_idempotent(data):
    alg = data.draw(st.sampled_from(ALGS))
    letters = alg.letters()
    word = tuple(data.draw(st.sampled_from(letters))
                 for _ in range(data.draw(st.integers(0, 4))))
    nf = alg.normal_form({word: Fraction(1)})
    assert alg.normal_form(nf) == nf


def test_product_linearity():
    alg = PBWAlgebra(minimal_envelope(CORPUS["A2"]))
    x, y = (1, 0), (1, 1)
    a = alg.normal_form({(x, x): Fraction(1), (y, x): Fraction(2)})
    b = alg.normal_form({(x, x): Fraction(1)})
    c = alg.normal_form({(y, x): Fraction(2)})
    merged = dict(b)
    for w, cf in c.items():
        merged[w] = merged.get(w, Fraction(0)) + cf
    assert a == {w: cf for w, cf in merged.items() if cf}
