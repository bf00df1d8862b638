"""Free Leibniz algebras as truncated tensor modules, plus the graded-Lie
spans inside tensor powers and the necklace dimension count.

CommutatorSpans spans block (n, c), the tensor words of n letters of
total grade c, by the graded commutators [e, y] of the basis of block
(n - 1, c - v) with the letters y of grade v.  Its letters are the basis
of g, all of weight (1,), for the commutator subcomplex of an algebra,
and the words of a truncated free algebra, graded by weight (w,) for the
weight blocks or by letter content for the blocks conjecture_check runs.
The spans are integer rows over the positions of a block's words: for a
row e of the basis of block (n - 1, c - v), as (index, int) pairs, and a
letter y of grade v, the row of [e, y] = e.y - (-1)^(n-1) y.e reads two
index maps of the block below, t -> index[t + (y,)] and t -> index[(y,) + t],
and the rows of a block go to one forward exact elimination, whose
triangular rows are the one basis of the block everywhere it is used.

A word (i1, ..., iw) stands for the left-normed bracket
[[...[x_{i1}, x_{i2}], ...], x_{iw}] in the free right Leibniz algebra,
the tensor module with [a, y] = a (x) y for a generator y (Loday 1993,
Enseign. Math. 39).  The right identity then gives R_[u,y] = R_y R_u -
R_u R_y, so bracketing by a word b = (b1, ..., bq) appends the
left-normed commutator of its letters in T(V):

    [a, b] = a (x) lambda(b),   lambda((y,)) = y,
    lambda(b' + (y,)) = lambda(b') (x) y - y (x) lambda(b').

Everything is truncated at a maximum weight; brackets that would exceed
it raise WeightOverflow.  The free left Leibniz algebra is the opposite,
so [u, v] on the left is bracket(v, u) here.  Its structure constants
are integers, so elements are computed over ints.
"""

from __future__ import annotations

import itertools
import math
from functools import cache, cached_property

from .exactla import Subspace, _echelon, _primitive, _span, add_into

# word -> int coefficient
Element = dict[tuple, int]


class WeightOverflow(Exception):
    """A bracket left the weight truncation."""


class NecklaceCountError(ArithmeticError):
    """The Moebius sum of witt_dim is not divisible by the weight: an
    internal fault, never a property of the input."""


class RightIdentityError(ArithmeticError):
    """The free bracket breaks the right Leibniz identity on generators:
    an internal fault in the closed form a (x) lambda(b), never a property
    of the input."""


def graded_commutator(u: Element, v: Element) -> Element:
    """[u, v] = u(x)v - (-1)^{pq} v(x)u with p, q the key lengths.

    Both arguments must be homogeneous in key length; letters count as
    degree 1 each, so tensor degree is just the length.
    """
    if not u or not v:
        return {}
    p, q = len(next(iter(u))), len(next(iter(v)))
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
    val, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            val = -val
        p += 1
    return -val if n > 1 else val


def witt_dim(d: int, w: int) -> int:
    """Dimension of the weight-w component of the free Lie algebra on d
    generators: (1/w) * sum over e | w of mobius(e) d^(w/e)."""
    if w < 1 or d < 0:
        raise ValueError(f"witt_dim needs a weight w >= 1 and d >= 0 generators, got d={d}, w={w}")
    total = sum(_mobius(e) * d ** (w // e) for e in range(1, w + 1) if w % e == 0)
    if total % w:
        raise NecklaceCountError(f"necklace sum {total} for d={d} is not divisible by w={w}")
    return total // w


def content_orbits(d: int, w: int) -> list[tuple[tuple[int, ...], int]]:
    """The letter contents of weight w on d generators, one per S_d orbit:
    (the non-increasing content, the size of its orbit), in decreasing order."""
    return [(c, math.factorial(d) // math.prod(math.factorial(c.count(x)) for x in set(c)))
            for c in itertools.combinations_with_replacement(range(w, -1, -1), d) if sum(c) == w]


@cache
def _splits(c: tuple[int, ...], n: int) -> tuple:
    """(v, c - v) for the nonzero v <= c that leave weight for n - 1 more
    letters, in itertools.product order."""
    return tuple((v, tuple(a - b for a, b in zip(c, v)))
                 for v in itertools.product(*(range(x + 1) for x in c))
                 if 0 < sum(v) <= sum(c) - n + 1)


class CommutatorSpans:
    """Memoized spans of left-normed graded commutators, by block (n, c).

    A grade is a weight (w,), or a letter content (the count of each
    generator) of letters that are words in generators.  letters(v) lists
    the letters of grade v, each of tensor degree 1.  words(n, c) orders a
    block by the grade v of its first letter in itertools.product order,
    then by letters(v), then recursively: product order for weight-1 letters.

    Renaming the generators carries the blocks of a content onto those of
    its permutations and commutes with the graded commutator, so elements,
    which the recursion reads, eliminates only a non-increasing content:
    those of any other are its sorted representative's, renamed through one
    index map per block.
    """

    def __init__(self, letters):
        self.letters = letters
        self._words: dict[tuple, list[tuple]] = {}
        self._index: dict[tuple, dict[tuple, int]] = {}
        self._bases: dict[tuple, list] = {}
        self._elements: dict[tuple, list] = {}

    def words(self, n: int, c: tuple[int, ...]) -> list[tuple]:
        key = (n, c)
        if key not in self._words:
            if n == 0:
                self._words[key] = [()] if not any(c) else []
            else:
                self._words[key] = [(y,) + rest for v, below in _splits(c, n)
                                    for y in self.letters(v) for rest in self.words(n - 1, below)]
        return self._words[key]

    def index(self, n: int, c: tuple[int, ...]) -> dict[tuple, int]:
        """The position of each word of block (n, c) in words(n, c)."""
        if (n, c) not in self._index:
            self._index[n, c] = {t: i for i, t in enumerate(self.words(n, c))}
        return self._index[n, c]

    def basis(self, n: int, c: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
        """The forward echelon basis of block (n, c), eliminated directly:
        primitive rows of column-sorted (index into words(n, c), int)
        pairs, each led by a positive entry, the leads increasing."""
        if n <= 1 and (n, c) not in self._bases:
            self._bases[n, c] = [((i, 1),) for i in range(len(self.words(n, c)))]
        if (n, c) not in self._bases:
            index, sign, rows = self.index(n, c), -1 if n % 2 else 1, []
            for v, below in _splits(c, n):
                ts = self.words(n - 1, below)
                maps = [([index[t + (y,)] for t in ts], [index[(y,) + t] for t in ts])
                        for y in self.letters(v)]
                for e in self.elements(n - 1, below):
                    for right, left in maps:
                        # t -> t + (y,) and t -> (y,) + t are one-to-one
                        row = {right[i]: x for i, x in e}
                        for i, x in e:
                            row[left[i]] = row.get(left[i], 0) + sign * x
                        row = {j: x for j, x in row.items() if x}
                        if row:
                            rows.append(_primitive(row))
            self._bases[n, c] = [tuple(sorted(row.items()) if row[p] > 0 else
                                       sorted((j, -x) for j, x in row.items()))
                                 for p, row in _echelon(rows, len(self.words(n, c))).items()]
        return self._bases[n, c]

    def span(self, n: int, c: tuple[int, ...]) -> Subspace:
        """The span of basis(n, c) as a canonical Subspace, built per call."""
        return _span(len(self.words(n, c)), [dict(row) for row in self.basis(n, c)])

    def elements(self, n: int, c: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
        """Primitive integer vectors spanning block (n, c), one per basis
        row, as (index into words(n, c), int) pairs: basis(n, c) itself
        for a non-increasing c, else the sorted representative's, renamed."""
        rep = tuple(sorted(c, reverse=True))
        if rep == c:
            return self.basis(n, c)
        if (n, c) not in self._elements:
            # generator i of the representative is the i-th of c by count
            name = sorted(range(len(c)), key=lambda i: -c[i])
            index = self.index(n, c)
            perm = [index[tuple(tuple(name[g] for g in y) for y in t)]
                    for t in self.words(n, rep)]
            self._elements[n, c] = [tuple((perm[i], x) for i, x in e)
                                    for e in self.elements(n, rep)]
        return self._elements[n, c]


def free_graded_lie_component(d: int, n: int) -> Subspace:
    """Span of left-normed degree-n commutators of d degree-1 letters,
    inside the n-th tensor power."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    return CommutatorSpans(lambda v: range(d) if v == (1,) else ()).span(n, (n,))


def _letters(d: int, max_weight: int):
    """letters(grade): the words of weight w, 1 <= w <= max_weight, on d generators
    for the grade (w,), or of letter content grade; a closure holding no truncation."""

    @cache
    def letters(grade: tuple[int, ...]) -> list[tuple[int, ...]]:
        w = sum(grade)
        words = itertools.product(range(d), repeat=w) if 1 <= w <= max_weight else ()
        return [t for t in words if len(grade) == 1 or tuple(map(t.count, range(d))) == grade]

    return letters


class FreeLeibnizTruncation:
    """Free right Leibniz algebra on num_generators generators, truncated
    above max_weight.  Elements are dicts word -> coefficient."""

    def __init__(self, num_generators: int, max_weight: int):
        if num_generators < 1 or max_weight < 1:
            raise ValueError("need at least one generator and weight 1")
        self.num_generators = num_generators
        self.max_weight = max_weight
        self._lambdas: dict[tuple[int, ...], tuple] = {}
        self.letters = _letters(num_generators, max_weight)
        if max_weight >= 3:
            self._sanity_check()

    def words(self, weight: int) -> list[tuple[int, ...]]:
        return list(self.letters((weight,)))

    @cached_property
    def spans(self) -> CommutatorSpans:
        """The commutator spans of the blocks over these words, built once."""
        return CommutatorSpans(self.letters)

    def bracket_words(self, a: tuple[int, ...], b: tuple[int, ...]) -> Element:
        if len(a) + len(b) > self.max_weight:
            raise WeightOverflow(
                f"weight {len(a)} + {len(b)} exceeds the truncation {self.max_weight}")
        return {a + t: c for t, c in self._left_normed(b)}

    def _left_normed(self, b: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
        """The (t, c) int terms of lambda(b), memoized per word."""
        if b not in self._lambdas:
            if len(b) == 1:
                self._lambdas[b] = ((b, 1),)
            else:
                y, out = b[-1:], {}
                for t, c in self._left_normed(b[:-1]):
                    add_into(out, t + y, c)
                    add_into(out, y + t, -c)
                self._lambdas[b] = tuple(out.items())
        return self._lambdas[b]

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
        # slip in lambda before it contaminates a run
        for i, j, k in itertools.product(range(self.num_generators), repeat=3):
            a, b, c = {(i,): 1}, {(j,): 1}, {(k,): 1}
            lhs = self.bracket(a, self.bracket(b, c))
            rhs = self.bracket(self.bracket(a, b), c)
            for w, x in self.bracket(self.bracket(a, c), b).items():
                add_into(rhs, w, -x)
            if lhs != rhs:
                raise RightIdentityError(f"right identity fails on generators {i},{j},{k}")
