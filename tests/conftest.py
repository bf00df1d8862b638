"""Oracles and fixtures shared across the suite; the corpus itself lives
in corpus.py, whose names this module re-exports."""

from fractions import Fraction

import pytest

from corpus import (  # noqa: F401
    CORPUS, LIE_CORPUS, SL2_BRACKETS, character_module, conjugate, dense, make_corpus,
    quotient_adjoint_module, random_algebra, representations_for, rescale, rescaled_heis3,
    unimodular)
from leibhom.exactla import Matrix, add_into


def entries_dict(m):
    """The nonzero entries of a Matrix as {(row, col): Fraction}."""
    return {(i, j): a for i, srow in enumerate(m.sparse_rows) for j, a in srow}


def basis_matrix(ambient, rows):
    """The ambient x len(rows) Matrix whose columns are the sparse rows
    ((index, int), ...) of a block basis."""
    return Matrix(len(rows), ambient, rows).transpose()


def bilinear(t, u, v):
    """The bilinear map with dense tensor t at the vectors (u, v), the
    way the library evaluated one before its tensors became tables."""
    if not t:
        return ()
    c = len(t[0][0]) if t[0] else 0
    out = [Fraction(0)] * c
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                if vj:
                    for k, wk in enumerate(t[i][j]):
                        if wk:
                            out[k] += ui * vj * wk
    return tuple(out)


def scale_element(elem, c):
    """c times an element {word: coefficient}."""
    return {w: c * v for w, v in elem.items()} if c else {}


def add_elements(u, v):
    """The sum of two elements {word: coefficient}."""
    out = dict(u)
    for w, c in v.items():
        add_into(out, w, c)
    return out


def unfolded_bracket_words(a, b, memo):
    """[a, b] of two words in the free right Leibniz algebra, untruncated,
    the way the library first computed it: a generator on the right
    appends a letter, and the general case unfolds through the right
    identity [a, [b, v]] = [[a, b], v] - [[a, v], b], memoized in memo
    per pair of words."""
    if len(b) == 1:
        return {a + b: 1}
    if (a, b) not in memo:
        head, last = b[:-1], b[-1:]
        t1 = unfolded_bracket(unfolded_bracket_words(a, head, memo), {last: 1}, memo)
        t2 = unfolded_bracket(unfolded_bracket_words(a, last, memo), {head: 1}, memo)
        memo[a, b] = add_elements(t1, scale_element(t2, -1))
    return memo[a, b]


def unfolded_bracket(u, v, memo):
    """The bilinear extension of unfolded_bracket_words to elements."""
    out = {}
    for wu, cu in u.items():
        for wv, cv in v.items():
            for w, c in unfolded_bracket_words(wu, wv, memo).items():
                add_into(out, w, cu * cv * c)
    return out


@pytest.fixture(scope="session")
def corpus():
    return CORPUS


@pytest.fixture(scope="session")
def lie_corpus():
    return LIE_CORPUS
