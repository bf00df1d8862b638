import pytest

from leibhom.freealg import FreeLeibnizTruncation, witt_dim
from leibhom.homology import (
    DEFAULT_WEIGHT_BUDGET,
    FALLBACK_WEIGHT_BUDGET,
    conjecture_check,
    fg_subcomplex,
    fg_weight_complex,
)

from conftest import CORPUS


def test_subcomplex_closes_on_corpus():
    # construction itself runs the invariance and d o d = 0 gates
    for name, g in CORPUS.items():
        cx = fg_subcomplex(g, 4)
        assert cx.dims[0] == 1, name
        assert cx.dims[1] == g.dim, name


def test_subcomplex_dims_match_graded_components():
    cx = fg_subcomplex(CORPUS["abelian2"], 4)
    assert cx.dims == (1, 2, 3, 2, 3)
    # abelian bracket: zero boundary, so homology is the whole span
    assert cx.betti() == (1, 2, 3, 2, 3)


def test_subcomplex_on_a2_kills_top_of_degree_one():
    cx = fg_subcomplex(CORPUS["A2"], 3)
    # d2 restricted to the symmetric square hits [x,x] = y
    assert cx.betti()[1] == 1


def test_default_budgets():
    assert DEFAULT_WEIGHT_BUDGET == {1: 12, 2: 7}
    assert FALLBACK_WEIGHT_BUDGET == 5


def test_conjecture_one_generator():
    rep = conjecture_check(1)
    assert rep.max_weight == 12
    assert rep.verdict == "PASS"
    assert [v.h1 for v in rep.weights] == [1] + [0] * 11
    assert all(h == 0 for v in rep.weights for h in v.higher)
    assert [v.expected_h1 for v in rep.weights] == [witt_dim(1, w) for w in range(1, 13)]


def test_conjecture_two_generators():
    rep = conjecture_check(2)
    assert rep.max_weight == 7
    assert rep.verdict == "PASS"
    assert [v.h1 for v in rep.weights] == [2, 1, 2, 3, 6, 9, 18]
    assert all(h == 0 for v in rep.weights for h in v.higher)


def test_conjecture_three_generators_fallback_budget():
    rep = conjecture_check(3)
    assert rep.max_weight == FALLBACK_WEIGHT_BUDGET
    assert rep.verdict == "PASS"
    assert [v.h1 for v in rep.weights] == [witt_dim(3, w) for w in range(1, 6)]


def test_weight_blocks_are_complexes():
    fl = FreeLeibnizTruncation(2, 4)
    for w in (1, 2, 3, 4):
        cplx = fg_weight_complex(fl, w)
        assert cplx.betti()[0] == witt_dim(2, w)


def test_weight_outside_truncation_rejected():
    fl = FreeLeibnizTruncation(2, 2)
    with pytest.raises(ValueError):
        fg_weight_complex(fl, 3)


def test_report_failures_empty_on_pass():
    rep = conjecture_check(1, 4)
    assert rep.failures == ()
    assert all(v.ok for v in rep.weights)
