import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibhom.freealg import (
    FreeLeibnizTruncation,
    NecklaceCountError,
    WeightOverflow,
    free_graded_lie_component,
    graded_commutator,
    witt_dim,
)

from conftest import add_elements, scale_element, unfolded_bracket_words


def lyndon_count(d: int, w: int) -> int:
    """Aperiodic necklaces counted the slow way: a word is Lyndon when it
    is strictly smaller than all of its proper rotations."""
    count = 0
    for word in itertools.product(range(d), repeat=w):
        if all(word < word[k:] + word[:k] for k in range(1, w)):
            count += 1
    return count


def graded_free_lie_dims(d: int, n_max: int) -> list[int]:
    """Component dimensions forced by the tensor-algebra Hilbert series:
    1/(1-dt) factors as prod (1+t^n)^{l_n} over odd n times
    prod (1-t^n)^{-l_n} over even n."""
    target = [d ** k for k in range(n_max + 1)]
    series = [1] + [0] * n_max
    dims = []
    for n in range(1, n_max + 1):
        l = target[n] - series[n]
        assert l >= 0
        dims.append(l)
        factor = [0] * (n_max + 1)
        if l == 0:
            factor[0] = 1
        elif n % 2 == 1:
            for k in range(0, n_max // n + 1):
                factor[n * k] = math.comb(l, k) if k <= l else 0
        else:
            for k in range(0, n_max // n + 1):
                factor[n * k] = math.comb(l - 1 + k, k)
        series = [sum(series[i] * factor[j - i] for i in range(j + 1))
                  for j in range(n_max + 1)]
    return dims


@pytest.mark.parametrize("d,w", [(d, w) for d in (1, 2, 3) for w in range(1, 7)])
def test_witt_dim_counts_lyndon_words(d, w):
    assert witt_dim(d, w) == lyndon_count(d, w)


def test_witt_dim_two_generators_table():
    assert [witt_dim(2, w) for w in range(1, 6)] == [2, 1, 2, 3, 6]


def test_witt_dim_raises_on_non_divisible_sum(monkeypatch):
    # with every Moebius value 1 the sum for d = 2, w = 3 is 8 + 2 = 10;
    # the check is a raise, not an assert, so python -O keeps it
    monkeypatch.setattr("leibhom.freealg._mobius", lambda n: 1)
    with pytest.raises(NecklaceCountError, match="not divisible by w=3"):
        witt_dim(2, 3)


def test_witt_dim_one_generator():
    assert [witt_dim(1, w) for w in range(1, 7)] == [1, 0, 0, 0, 0, 0]


def test_graded_component_dims_two_letters():
    assert [free_graded_lie_component(2, n).dim for n in (1, 2, 3, 4)] == [2, 3, 2, 3]


def test_graded_component_dims_one_letter():
    assert [free_graded_lie_component(1, n).dim for n in (1, 2, 3)] == [1, 1, 0]


@pytest.mark.parametrize("d,n_max", [(1, 5), (2, 5), (3, 4)])
def test_graded_component_matches_series_oracle(d, n_max):
    want = graded_free_lie_dims(d, n_max)
    got = [free_graded_lie_component(d, n).dim for n in range(1, n_max + 1)]
    assert got == want


def test_second_component_is_symmetric_square():
    for d in (1, 2, 3, 4):
        assert free_graded_lie_component(d, 2).dim == d * (d + 1) // 2


def test_graded_commutator_of_equal_odd_words():
    u = {(0,): Fraction(1)}
    out = graded_commutator(u, u)
    assert out == {(0, 0): Fraction(2)}


small_words = st.tuples(st.integers(0, 1), st.integers(0, 1)) | st.tuples(st.integers(0, 1))


@st.composite
def elements(draw):
    n = draw(st.integers(1, 3))
    deg = draw(st.integers(1, 2))
    out = {}
    for _ in range(n):
        w = tuple(draw(st.integers(0, 1)) for _ in range(deg))
        c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=2))
        if c:
            out[w] = c
    return out


@settings(max_examples=60, deadline=None)
@given(elements(), elements())
def test_graded_commutator_antisymmetry(u, v):
    du = len(next(iter(u))) if u else 0
    dv = len(next(iter(v))) if v else 0
    sign = Fraction(-1) ** (du * dv)
    lhs = graded_commutator(u, v)
    rhs = scale_element(graded_commutator(v, u), -sign)
    assert lhs == rhs


def test_free_truncation_dims_and_words():
    fl = FreeLeibnizTruncation(2, 4)
    for w in range(1, 5):
        assert len(fl.words(w)) == 2 ** w
    assert fl.words(5) == []


def test_free_truncation_right_identity_on_words():
    fl = FreeLeibnizTruncation(2, 4)
    words = fl.words(1) + fl.words(2)
    one = Fraction(1)
    for a in words:
        for b in words:
            for c in [(0,), (1,)]:
                if len(a) + len(b) + 1 > fl.max_weight:
                    continue
                ae, be, ce = {a: one}, {b: one}, {c: one}
                lhs = fl.bracket(ae, fl.bracket(be, ce))
                rhs = add_elements(
                    fl.bracket(fl.bracket(ae, be), ce),
                    scale_element(fl.bracket(fl.bracket(ae, ce), be), Fraction(-1)))
                assert lhs == rhs, (a, b, c)


def test_free_truncation_left_bracket_satisfies_left_identity():
    fl = FreeLeibnizTruncation(2, 3)
    one = Fraction(1)
    gens = [{(i,): one} for i in range(2)]
    for x in gens:
        for y in gens:
            for z in gens:
                lhs = fl.bracket_left(fl.bracket_left(x, y), z)
                rhs = add_elements(
                    fl.bracket_left(x, fl.bracket_left(y, z)),
                    scale_element(fl.bracket_left(y, fl.bracket_left(x, z)), Fraction(-1)))
                assert lhs == rhs


def test_weight_overflow():
    fl = FreeLeibnizTruncation(2, 3)
    with pytest.raises(WeightOverflow):
        fl.bracket_words((0, 1), (1, 0))


@pytest.mark.parametrize("d, top, pairs", [(1, 10, 45), (2, 7, 1284), (3, 5, 1278)])
def test_closed_form_bracket_matches_the_unfolding_recursion(d, top, pairs):
    # [a, b] = a (x) lambda(b) against the right-identity recursion, on
    # every pair of words that the truncation brackets
    fl, memo = FreeLeibnizTruncation(d, top), {}
    checked = 0
    for p in range(1, top):
        for q in range(1, top - p + 1):
            for a in fl.words(p):
                for b in fl.words(q):
                    assert fl.bracket_words(a, b) == unfolded_bracket_words(a, b, memo), (a, b)
                    checked += 1
    assert checked == pairs


def test_generator_bracket_appends():
    fl = FreeLeibnizTruncation(2, 3)
    assert fl.bracket_words((0, 1), (1,)) == {(0, 1, 1): Fraction(1)}


def test_witt_dim_refuses_weight_below_one_and_negative_generators():
    for d, w in [(2, 0), (2, -1), (-1, 2), (-3, 1)]:
        with pytest.raises(ValueError, match="witt_dim needs"):
            witt_dim(d, w)
    assert [witt_dim(0, w) for w in range(1, 5)] == [0, 0, 0, 0]
