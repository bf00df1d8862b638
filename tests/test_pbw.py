import itertools
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from leibhom.dgcat import cone
from leibhom.dgla import minimal_envelope
from leibhom.pbw import PBWAlgebra

from conftest import CORPUS, LIE_CORPUS, FractionPBW, as_fractions, rescale, rescaled_heis3


# A2 in the basis (x/2, 3y): an odd square with a denominator
A2_RESCALED = rescale(CORPUS["A2"], (Fraction(1, 2), 3))


class RightmostPBW(PBWAlgebra):
    """The confluence oracle: rewrites the rightmost violation first."""

    def _violation(self, word):
        for t in reversed(range(len(word) - 1)):
            a, b = word[t], word[t + 1]
            if a > b or (a == b and self.parity(a)):
                return t
        return None


def test_odd_square_rewrites_to_half_bracket():
    # in the envelope of [x,x] = y the square of the letter x becomes
    # exactly the degree-2 hat generator
    alg = PBWAlgebra(minimal_envelope(CORPUS["A2"]))
    x = (1, 0)
    assert alg.normal_form({(x, x): 1}) == ({((2, 0),): 1}, 1)


def test_odd_square_with_a_denominator_rescales_the_accumulator():
    # A2 in the basis (x/2, 3y): [f0, f0] = f1/12, so the square of f0 is a
    # twelfth of the hat generator, and every pending term is rescaled
    alg = PBWAlgebra(minimal_envelope(A2_RESCALED))
    x, y = (1, 0), (1, 1)
    assert alg.normal_form({(x, x): 1}) == ({((2, 0),): 1}, 12)
    assert alg.normal_form({(x, x): 1, (x, y): 1}) == ({((2, 0),): 1, (x, y): 12}, 12)
    assert alg.normal_form({(x, x): 12}) == ({((2, 0),): 1}, 1)
    assert alg.normal_form({(x, x): 12}, 5) == ({((2, 0),): 1}, 5)


def test_odd_swap_picks_up_sign_and_bracket():
    alg = PBWAlgebra(minimal_envelope(CORPUS["A2"]))
    x, y = (1, 0), (1, 1)
    # [x,y] + [y,x] = 0 here, so only the sign survives
    assert alg.normal_form({(y, x): 1}) == ({(x, y): -1}, 1)


def test_degree_zero_letters_commute_through_brackets():
    alg = PBWAlgebra(cone(LIE_CORPUS["r2"]))
    a, b = (0, 0), (0, 1)
    # ba = ab + [b,a] = ab - b  (with [a,b] = b in degree 0)
    assert alg.normal_form({(b, a): 1}) == ({(a, b): 1, (b,): -1}, 1)


def test_normal_words_are_fixed_points():
    alg = PBWAlgebra(minimal_envelope(CORPUS["A2"]))
    word = ((1, 0), (1, 1), (2, 0))
    assert alg._violation(word) is None
    assert alg.normal_form({word: 2}) == ({word: 2}, 1)
    assert alg.normal_form({word: 2}, 4) == ({word: 1}, 2)


def envelopes():
    """The envelopes of the corpus, with odd squares (A2, A2+k), a Lie
    quotient with non-integer constants (heis3 rescaled, [f0, f1] = 2/3 f2)
    and an odd square with one (A2 rescaled), and a cone."""
    out = {name: minimal_envelope(CORPUS[name]) for name in ("A2", "r2", "heis3", "A2+k")}
    out["heis3 rescaled"] = minimal_envelope(rescaled_heis3())
    out["A2 rescaled"] = minimal_envelope(A2_RESCALED)
    out["cone heis3"] = cone(LIE_CORPUS["heis3"])
    return out


ENVELOPES = envelopes()
ALGS = [PBWAlgebra(e) for e in ENVELOPES.values()]


def all_letters(alg):
    """The letters (degree, index) of the enveloping DGLA, degree by degree."""
    return [(p, i) for p in alg.algebra.degrees() for i in range(alg.algebra.dim(p))]


def test_integer_normal_forms_match_the_fraction_oracle():
    # every word of up to three letters, and over a denominator
    for name, envelope in ENVELOPES.items():
        alg, oracle = PBWAlgebra(envelope), FractionPBW(envelope)
        letters = all_letters(alg)
        for n in range(4):
            for word in itertools.product(letters, repeat=n):
                want = oracle.normal_form({word: Fraction(3, 2)})
                nf, den = alg.normal_form({word: 3}, 2)
                assert as_fractions((nf, den)) == want, (name, word)
                assert all(isinstance(c, int) for c in nf.values())
                # lowest terms over one denominator
                assert den > 0 and gcd(den, *nf.values()) == 1


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_strategies_agree(data):
    alg = data.draw(st.sampled_from(ALGS))
    letters = all_letters(alg)
    word = tuple(data.draw(st.sampled_from(letters))
                 for _ in range(data.draw(st.integers(0, 5))))
    poly = {word: 1}
    left = alg.normal_form(poly)
    assert left == RightmostPBW(alg.algebra).normal_form(poly)
    assert as_fractions(left) == FractionPBW(alg.algebra).normal_form({word: Fraction(1)})
    for w in left[0]:
        assert alg._violation(w) is None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_normal_form_idempotent(data):
    alg = data.draw(st.sampled_from(ALGS))
    letters = all_letters(alg)
    word = tuple(data.draw(st.sampled_from(letters))
                 for _ in range(data.draw(st.integers(0, 4))))
    nf, den = alg.normal_form({word: 1})
    assert alg.normal_form(nf, den) == (nf, den)


def test_product_linearity():
    alg = PBWAlgebra(minimal_envelope(CORPUS["A2"]))
    x, y = (1, 0), (1, 1)
    a = as_fractions(alg.normal_form({(x, x): 1, (y, x): 2}))
    b = as_fractions(alg.normal_form({(x, x): 1}))
    c = as_fractions(alg.normal_form({(y, x): 2}))
    merged = dict(b)
    for w, cf in c.items():
        merged[w] = merged.get(w, Fraction(0)) + cf
    assert a == {w: cf for w, cf in merged.items() if cf}
