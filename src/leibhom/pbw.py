"""Poincare-Birkhoff-Witt normal forms in the enveloping algebra of a DGLA.

Letters are (degree, index) pairs ordered lexicographically, so degree-0
letters sort to the front.  A word is normal when its letters are weakly
increasing and no odd-degree letter repeats adjacently.  Rewriting uses

    a b  ->  (-1)^{|a||b|} b a + [a, b]      (a > b)
    b b  ->  (1/2) [b, b]                    (b odd)

both of which strictly decrease (length, inversion count), so the
worklist terminates; the result is independent of which violation is
rewritten first (the rewriter takes the leftmost).  Coefficients are
ints over one running denominator, which a bracket's denominator or the
1/2 of an odd square raises with every coefficient, as homology._restrict
does.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd

from .dgla import DGLieAlgebra
from .exactla import _Record, add_into

Letter = tuple[int, int]
Word = tuple[Letter, ...]
Poly = dict[Word, int]


class PBWAlgebra(_Record):
    __match_args__ = ("algebra",)

    def __init__(self, algebra: DGLieAlgebra):
        self.algebra = algebra

    def parity(self, letter: Letter) -> int:
        return letter[0] % 2

    @cached_property
    def _brackets(self) -> dict:
        """{(a, b): (q, g, terms)}: the rewrite of a b adds x / q times each
        (letter, x) of terms, q doubled for an odd square, g the gcd of the xs."""
        out = {}
        for (p, q), t in self.algebra.brackets.items():
            for c, (den, col) in enumerate(t.transpose().int_rows):
                a, b = (p, c // self.algebra.dim(q)), (q, c % self.algebra.dim(q))
                out[a, b] = (den * (2 if a == b and p % 2 else 1), gcd(*[x for _, x in col]),
                             tuple(((p + q, k), x) for k, x in col))
        return out

    def _violation(self, word: Word) -> int | None:
        """The position of the leftmost pair that breaks normality, or None."""
        for t in range(len(word) - 1):
            a, b = word[t], word[t + 1]
            if a > b or (a == b and self.parity(a)):
                return t
        return None

    def normal_form(self, poly: Poly, den: int = 1) -> tuple[Poly, int]:
        """The normal form of poly / den as (nf, D), nf / D in lowest terms."""
        pending, done = {w: c for w, c in poly.items() if c}, {}
        while pending:
            word, coeff = pending.popitem()
            pos = self._violation(word)
            if pos is None:
                add_into(done, word, coeff)
                continue
            a, b = word[pos], word[pos + 1]
            prefix, suffix = word[:pos], word[pos + 2:]
            if a != b:
                add_into(pending, prefix + (b, a) + suffix,
                         -coeff if self.parity(a) and self.parity(b) else coeff)
            q, g, terms = self._brackets.get((a, b), (1, 1, ()))
            f = q // gcd(q, coeff * g)
            if f != 1:  # the least rescaling that keeps every new term an int
                den, coeff = den * f, coeff * f
                pending, done = ({w: c * f for w, c in acc.items()} for acc in (pending, done))
            for l, x in terms:
                add_into(pending, prefix + (l,) + suffix, coeff * x // q)
        g = gcd(den, *done.values())
        return {w: c // g for w, c in done.items()}, den // g
