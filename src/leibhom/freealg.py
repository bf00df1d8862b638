"""Free Leibniz algebras as truncated tensor modules, plus the graded-Lie
spans inside tensor powers and the necklace dimension count.

CommutatorSpans spans block (n, w), the tensor words of n letters of
total weight w, by the graded commutators [c, y] of the basis of block
(n - 1, w - v) with the letters y of weight v.  Its letters are the basis
of g, all of weight 1, for the commutator subcomplex of an algebra, and
the words of a truncated free algebra for the weight blocks.

A word (i1, ..., iw) stands for the left-normed bracket
[[...[x_{i1}, x_{i2}], ...], x_{iw}] in the free right Leibniz algebra;
bracketing by a single generator on the right appends a letter, and the
general case unfolds through the right identity

    [a, [b, v]] = [[a, b], v] - [[a, v], b].

Everything is truncated at a maximum weight; brackets that would exceed
it raise WeightOverflow.  The free left Leibniz algebra is the opposite,
so [u, v] on the left is bracket(v, u) here.  Its structure constants
are integers, so elements and spans are computed over ints.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property

from .exactla import Subspace, add_into

# word -> coefficient, an int for everything built here
Element = dict[tuple, int | Fraction]


class WeightOverflow(Exception):
    """A bracket left the weight truncation."""


class NecklaceCountError(ArithmeticError):
    """The Moebius sum of witt_dim is not divisible by the weight: an
    internal fault, never a property of the input."""


class RightIdentityError(ArithmeticError):
    """The free bracket breaks the right Leibniz identity on generators:
    an internal fault in the unfolding recursion, never a property of the
    input."""


def scale_element(elem: Element, c: int | Fraction) -> Element:
    if not c:
        return {}
    return {w: c * v for w, v in elem.items()}


def add_elements(u: Element, v: Element) -> Element:
    out = dict(u)
    for w, c in v.items():
        add_into(out, w, c)
    return out


def graded_commutator(u: Element, v: Element) -> Element:
    """[u, v] = u(x)v - (-1)^{pq} v(x)u with p, q the key lengths.

    Both arguments must be homogeneous in key length; letters count as
    degree 1 each, so tensor degree is just the length.
    """
    if not u or not v:
        return {}
    p = len(next(iter(u)))
    q = len(next(iter(v)))
    sign = -1 if p * q % 2 else 1
    out: Element = {}
    for wu, cu in u.items():
        if len(wu) != p:
            raise ValueError("left argument is not homogeneous")
        for wv, cv in v.items():
            if len(wv) != q:
                raise ValueError("right argument is not homogeneous")
            add_into(out, wu + wv, cu * cv)
            add_into(out, wv + wu, -sign * cu * cv)
    return out


def _mobius(n: int) -> int:
    val = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            val = -val
        p += 1
    if n > 1:
        val = -val
    return val


def _divisors(n: int) -> list[int]:
    out = [e for e in range(1, n + 1) if n % e == 0]
    return out


def witt_dim(d: int, w: int) -> int:
    """Dimension of the weight-w component of the free Lie algebra on d
    generators: (1/w) * sum over e | w of mobius(e) d^(w/e)."""
    total = sum(_mobius(e) * d ** (w // e) for e in _divisors(w))
    if total % w:
        raise NecklaceCountError(f"necklace sum {total} for d={d} is not divisible by w={w}")
    return total // w


class CommutatorSpans:
    """Memoized spans of left-normed graded commutators, by block (n, w).

    letters(v) lists the letters of weight v, each of tensor degree 1.
    words(n, w) orders a block by the weight of its first letter, then by
    letters(v), then recursively: itertools.product order when every
    letter has weight 1.
    """

    def __init__(self, letters):
        self.letters = letters
        self._words: dict[tuple[int, int], list[tuple]] = {}
        self._spans: dict[tuple[int, int], tuple[Subspace, list[Element]]] = {}

    def words(self, n: int, w: int) -> list[tuple]:
        key = (n, w)
        if key not in self._words:
            if n == 0:
                out = [()] if w == 0 else []
            else:
                out = [(y,) + rest for v in range(1, w - n + 2) for y in self.letters(v)
                       for rest in self.words(n - 1, w - v)]
            self._words[key] = out
        return self._words[key]

    def span(self, n: int, w: int) -> Subspace:
        """The commutator span inside k^len(words(n, w))."""
        return self._span(n, w)[0]

    def _span(self, n: int, w: int) -> tuple[Subspace, list[Element]]:
        """The span of block (n, w) and primitive integer vectors spanning
        it, as elements: the basis columns times their denominators."""
        key = (n, w)
        if key in self._spans:
            return self._spans[key]
        words = self.words(n, w)
        if n <= 1:
            sub = Subspace.full(len(words))
            elems = [{t: 1} for t in words]
        else:
            index = {t: i for i, t in enumerate(words)}
            spanning = []
            for v in range(1, w - n + 2):
                for c in self._span(n - 1, w - v)[1]:
                    for y in self.letters(v):
                        br = graded_commutator(c, {(y,): 1})
                        if br:
                            spanning.append([(index[t], x) for t, x in br.items()])
            sub = Subspace.from_sparse_columns(len(words), spanning)
            elems = [{words[i]: x for i, x in col} for _, col in sub.columns]
        self._spans[key] = (sub, elems)
        return self._spans[key]


def free_graded_lie_component(d: int, n: int) -> Subspace:
    """Span of left-normed degree-n commutators of d degree-1 letters,
    inside the n-th tensor power."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    return CommutatorSpans(lambda v: range(d) if v == 1 else ()).span(n, n)


class FreeLeibnizTruncation:
    """Free right Leibniz algebra on num_generators generators, truncated
    above max_weight.  Elements are dicts word -> coefficient."""

    def __init__(self, num_generators: int, max_weight: int):
        if num_generators < 1 or max_weight < 1:
            raise ValueError("need at least one generator and weight 1")
        self.num_generators = num_generators
        self.max_weight = max_weight
        self._memo: dict[tuple[tuple, tuple], Element] = {}
        if max_weight >= 3:
            self._sanity_check()

    def words(self, weight: int) -> list[tuple[int, ...]]:
        if weight < 1 or weight > self.max_weight:
            return []
        return list(itertools.product(range(self.num_generators), repeat=weight))

    @cached_property
    def spans(self) -> CommutatorSpans:
        """The commutator spans of the blocks over these words, built once."""
        return CommutatorSpans(self.words)

    def bracket_words(self, a: tuple[int, ...], b: tuple[int, ...]) -> Element:
        if len(a) + len(b) > self.max_weight:
            raise WeightOverflow(
                f"weight {len(a)} + {len(b)} exceeds the truncation {self.max_weight}")
        if len(b) == 1:
            return {a + b: 1}
        key = (a, b)
        got = self._memo.get(key)
        if got is not None:
            return got
        head, last = b[:-1], b[-1:]
        # [a, [head, v]] = [[a, head], v] - [[a, v], head]
        t1 = self.bracket(self.bracket_words(a, head), {last: 1})
        t2 = self.bracket(self.bracket_words(a, last), {head: 1})
        out = add_elements(t1, scale_element(t2, -1))
        self._memo[key] = out
        return out

    def bracket(self, u: Element, v: Element) -> Element:
        out: Element = {}
        for wu, cu in u.items():
            for wv, cv in v.items():
                for w, c in self.bracket_words(wu, wv).items():
                    add_into(out, w, cu * cv * c)
        return out

    def bracket_left(self, u: Element, v: Element) -> Element:
        """Bracket of the opposite (left-convention) free algebra."""
        return self.bracket(v, u)

    def _sanity_check(self) -> None:
        # right identity on all generator triples; cheap and catches any
        # slip in the unfolding recursion before it contaminates a run
        for i in range(self.num_generators):
            a = {(i,): 1}
            for j in range(self.num_generators):
                b = {(j,): 1}
                for k in range(self.num_generators):
                    c = {(k,): 1}
                    lhs = self.bracket(a, self.bracket(b, c))
                    rhs = add_elements(
                        self.bracket(self.bracket(a, b), c),
                        scale_element(self.bracket(self.bracket(a, c), b), -1),
                    )
                    if lhs != rhs:
                        raise RightIdentityError(
                            f"right identity fails on generators {i},{j},{k}")
