"""Oracles and fixtures shared across the suite; the corpus itself lives
in corpus.py, whose names this module re-exports."""

from fractions import Fraction

import pytest

from corpus import (  # noqa: F401
    CORPUS, LIE_CORPUS, SL2_BRACKETS, character_module, conjugate, dense, make_corpus,
    quotient_adjoint_module, random_algebra, representations_for, rescale, rescaled_heis3,
    unimodular)
from leibhom.dgla import minimal_envelope
from leibhom.exactla import Matrix, add_into
from leibhom.homology import _ce_monomials
from leibhom.pbw import PBWAlgebra


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


class FractionPBW(PBWAlgebra):
    """The PBW rewriter as the library ran it on Fractions, kept as the
    oracle of the integer one: it reads each bracket column as Fractions
    and takes the 1/2 of an odd square as a Fraction, and normal_form
    returns {word: Fraction}."""

    def bracket_letters(self, a, b):
        p, i = a
        q, j = b
        t = self.algebra.brackets.get((p, q))
        if t is None or self.algebra.dim(p + q) == 0:
            return {}
        return {(p + q, k): c for k, c in t.transpose().sparse_rows[i * self.algebra.dim(q) + j]}

    def normal_form(self, poly):
        pending = {}
        for w, c in poly.items():
            add_into(pending, w, c)
        done = {}
        while pending:
            word, coeff = pending.popitem()
            pos = self._violation(word)
            if pos is None:
                add_into(done, word, coeff)
                continue
            a, b = word[pos], word[pos + 1]
            prefix, suffix = word[:pos], word[pos + 2:]
            if a == b:
                for l, c in self.bracket_letters(a, a).items():
                    add_into(pending, prefix + (l,) + suffix, coeff * c * Fraction(1, 2))
            else:
                sign = Fraction(-1) if (self.parity(a) and self.parity(b)) else Fraction(1)
                add_into(pending, prefix + (b, a) + suffix, coeff * sign)
                for l, c in self.bracket_letters(a, b).items():
                    add_into(pending, prefix + (l,) + suffix, coeff * c)
        return done


def as_fractions(form):
    """An integer normal form (nf, den) as {word: Fraction}."""
    nf, den = form
    return {w: Fraction(c, den) for w, c in nf.items()}


def fraction_ce_boundaries(g, action, m, n_max):
    """The boundaries of the enveloping-algebra chain complex of g with an
    m-dim coefficient module on which the table action acts (None for the
    zero action), built on Fractions the way the library built them: each
    normal monomial derived as a graded derivation, normalized by
    FractionPBW, and a leading degree-0 letter folded onto the coefficient
    as m.xi = -xi.m."""
    envelope = minimal_envelope(g)
    pbw = FractionPBW(envelope)
    images = {deg: [[((deg - 1, a), c) for a, c in col]
                    for col in envelope.differential(deg).transpose().sparse_rows]
              for deg in (1, 2)}
    mons = [_ce_monomials(envelope, n) for n in range(n_max + 1)]
    acts = None if action is None else action.transpose().sparse_rows
    out = []
    for n in range(1, n_max + 1):
        index = {w: i for i, w in enumerate(mons[n - 1])}
        rows_w, cols_w = len(mons[n - 1]), len(mons[n])
        entries = {}
        for widx, word in enumerate(mons[n]):
            derived, sign = {}, Fraction(1)
            for t, (deg, idx) in enumerate(word):
                for letter, c in images[deg][idx]:
                    add_into(derived, word[:t] + (letter,) + word[t + 1:], sign * c)
                if deg % 2:
                    sign = -sign
            for w2, c in pbw.normal_form(derived).items():
                letter, target = (w2[0][1], w2[1:]) if w2 and w2[0][0] == 0 else (None, w2)
                r = index[target]
                for u in range(m):
                    if letter is None:
                        add_into(entries, (u * rows_w + r, u * cols_w + widx), c)
                    elif acts is not None:
                        for u2, cc in acts[letter * m + u]:
                            add_into(entries, (u2 * rows_w + r, u * cols_w + widx), -c * cc)
        out.append(Matrix.from_entries(m * rows_w, m * cols_w, entries))
    return out


@pytest.fixture(scope="session")
def corpus():
    return CORPUS


@pytest.fixture(scope="session")
def lie_corpus():
    return LIE_CORPUS
