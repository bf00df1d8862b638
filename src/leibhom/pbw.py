"""Poincare-Birkhoff-Witt normal forms in the enveloping algebra of a DGLA.

Letters are (degree, index) pairs ordered lexicographically, so degree-0
letters sort to the front.  A word is normal when its letters are weakly
increasing and no odd-degree letter repeats adjacently.  Rewriting uses

    a b  ->  (-1)^{|a||b|} b a + [a, b]      (a > b)
    b b  ->  (1/2) [b, b]                    (b odd)

both of which strictly decrease (length, inversion count), so the
worklist terminates; the result is independent of which violation is
rewritten first, which the rewriter exposes for property testing via the
strategy argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .dgla import DGLieAlgebra
from .exactla import add_into

Letter = tuple[int, int]
Word = tuple[Letter, ...]
Poly = dict[Word, Fraction]

HALF = Fraction(1, 2)


@dataclass
class PBWAlgebra:
    algebra: DGLieAlgebra

    def letters(self) -> list[Letter]:
        out = []
        for p in self.algebra.degrees():
            out.extend((p, i) for i in range(self.algebra.dim(p)))
        return out

    def parity(self, letter: Letter) -> int:
        return letter[0] % 2

    @cached_property
    def _bracket_columns(self) -> dict:
        """The nonzero (k, c) terms of every column of every bracket table."""
        return {key: t.transpose().sparse_rows for key, t in self.algebra.brackets.items()}

    def bracket_letters(self, a: Letter, b: Letter) -> dict[Letter, Fraction]:
        p, i = a
        q, j = b
        columns = self._bracket_columns.get((p, q))
        if columns is None or self.algebra.dim(p + q) == 0:
            return {}
        return {(p + q, k): c for k, c in columns[i * self.algebra.dim(q) + j]}

    def _violation(self, word: Word, strategy: str) -> int | None:
        positions = range(len(word) - 1)
        if strategy == "rightmost":
            positions = reversed(positions)
        for t in positions:
            a, b = word[t], word[t + 1]
            if a > b:
                return t
            if a == b and self.parity(a):
                return t
        return None

    def normal_form(self, poly: Poly, strategy: str = "leftmost") -> Poly:
        if strategy not in ("leftmost", "rightmost"):
            raise ValueError(f"unknown strategy {strategy!r}")
        pending: Poly = {}
        for w, c in poly.items():
            add_into(pending, w, c)
        done: Poly = {}
        while pending:
            word, coeff = pending.popitem()
            pos = self._violation(word, strategy)
            if pos is None:
                add_into(done, word, coeff)
                continue
            a, b = word[pos], word[pos + 1]
            prefix, suffix = word[:pos], word[pos + 2:]
            if a == b:
                for l, c in self.bracket_letters(a, a).items():
                    add_into(pending, prefix + (l,) + suffix, coeff * c * HALF)
            else:
                sign = Fraction(-1) if (self.parity(a) and self.parity(b)) else Fraction(1)
                add_into(pending, prefix + (b, a) + suffix, coeff * sign)
                for l, c in self.bracket_letters(a, b).items():
                    add_into(pending, prefix + (l,) + suffix, coeff * c)
        return done

    def is_normal(self, word: Word) -> bool:
        return self._violation(word, "leftmost") is None
