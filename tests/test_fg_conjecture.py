import gc
import itertools
import math
import weakref
from fractions import Fraction
from functools import lru_cache

import pytest

from leibhom import cli, homology
from leibhom.exactla import Matrix, NotInvariant, Subspace, rank, restrict_map
from leibhom.freealg import (
    CommutatorSpans,
    FreeLeibnizTruncation,
    content_orbits,
    graded_commutator,
    witt_dim,
)
from leibhom.homology import (
    ChainComplex,
    DEFAULT_WEIGHT_BUDGET,
    FALLBACK_WEIGHT_BUDGET,
    conjecture_check,
    fg_subcomplex,
    fg_weight_complex,
)

from conftest import CORPUS, basis_matrix, entries_dict
from test_homology_loday import oracle_commutator_span


def test_subcomplex_closes_on_corpus():
    # construction itself runs the invariance and d o d = 0 gates
    for name, g in CORPUS.items():
        cx = fg_subcomplex(g, 4)
        assert cx.dims[0] == 1, name
        assert cx.dims[1] == g.dim, name


def test_subcomplex_dims_match_graded_components():
    cx = fg_subcomplex(CORPUS["abelian2"], 5)
    assert cx.dims == (1, 2, 3, 2, 3, 6)
    # abelian bracket: zero boundary, so homology is the whole span
    assert cx.betti() == (1, 2, 3, 2, 3)


def test_subcomplex_on_a2_kills_top_of_degree_one():
    cx = fg_subcomplex(CORPUS["A2"], 3)
    # d2 restricted to the symmetric square hits [x,x] = y
    assert cx.betti()[1] == 1


def test_default_budgets():
    assert DEFAULT_WEIGHT_BUDGET == {1: 14, 2: 7}
    assert FALLBACK_WEIGHT_BUDGET == 6


def test_conjecture_one_generator():
    rep = conjecture_check(1)
    assert rep.max_weight == 14
    assert rep.verdict == "PASS"
    assert [v.h1 for v in rep.weights] == [1] + [0] * 13
    assert all(h == 0 for v in rep.weights for h in v.higher)
    assert [v.expected_h1 for v in rep.weights] == [witt_dim(1, w) for w in range(1, 15)]


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
    assert [v.h1 for v in rep.weights] == [witt_dim(3, w) for w in range(1, 7)]
    assert [v.h1 for v in rep.weights] == [3, 3, 8, 18, 48, 116]


def test_weight_blocks_are_complexes():
    fl = FreeLeibnizTruncation(2, 4)
    for w in (1, 2, 3, 4):
        cplx = fg_weight_complex(fl, w)
        assert cplx.betti()[0] == witt_dim(2, w)


def test_weight_outside_truncation_rejected():
    fl = FreeLeibnizTruncation(2, 2)
    with pytest.raises(ValueError):
        fg_weight_complex(fl, 3)


@pytest.mark.parametrize("c", [0, -1, (0, 0), (2, 1), (1, -1), (1, 0, 0), (2,), ()])
def test_content_outside_truncation_rejected(c):
    # weight 0 or above 2, a negative count, or not one count per generator
    with pytest.raises(ValueError):
        fg_weight_complex(FreeLeibnizTruncation(2, 2), c)


def test_conjecture_check_builds_one_set_of_spans(monkeypatch):
    real_init, built = CommutatorSpans.__init__, []

    def counting(self, letters):
        built.append(letters)
        real_init(self, letters)

    monkeypatch.setattr(CommutatorSpans, "__init__", counting)
    assert conjecture_check(2, 5).verdict == "PASS"
    assert len(built) == 1


def test_report_failures_empty_on_pass():
    rep = conjecture_check(1, 4)
    assert rep.failures == ()
    assert all(v.ok for v in rep.weights)


# --- the weight blocks' ambient boundaries entry for entry against the
# --- per-word builder in Fraction arithmetic, with its own free bracket


@lru_cache(maxsize=None)
def oracle_free_bracket(a, b):
    """[a, b] of the free right Leibniz algebra on left-normed words, as
    ((word, Fraction), ...): bracketing by a letter appends it, and
    [a, [h, v]] = [[a, h], v] - [[a, v], h] unfolds the rest."""
    if len(b) == 1:
        return ((a + b, Fraction(1)),)
    head, last = b[:-1], b[-1:]
    out = {}
    for w, c in oracle_free_bracket(a, head):
        out[w + last] = out.get(w + last, Fraction(0)) + c
    for w, c in oracle_free_bracket(a + last, head):
        out[w] = out.get(w, Fraction(0)) - c
    return tuple((w, c) for w, c in out.items() if c)


def oracle_weight_boundary(words, targets):
    """The per-word tensor boundary T^n -> T^{n-1} over Fractions: the sum
    over i < j of (-1)^j with [x_j, x_i] written into slot i and slot j
    removed, [x_j, x_i] being the free right bracket of x_i with x_j."""
    index = {t: i for i, t in enumerate(targets)}
    entries = {}
    for widx, word in enumerate(words):
        for j in range(2, len(word) + 1):
            sj = Fraction(-1 if j % 2 else 1)
            for i in range(1, j):
                head, tail = word[:i - 1], word[i:j - 1] + word[j:]
                for k, c in oracle_free_bracket(word[i - 1], word[j - 1]):
                    key = (index[head + (k,) + tail], widx)
                    entries[key] = entries.get(key, Fraction(0)) + sj * c
    return {key: v for key, v in entries.items() if v}


def oracle_block_words(d, n, w):
    """Words of n letters of total weight w, each letter a word on d
    generators: by the first letter's weight, then its product order."""
    if n == 0:
        return [()] if w == 0 else []
    return [(y,) + rest for v in range(1, w - n + 2)
            for y in itertools.product(range(d), repeat=v)
            for rest in oracle_block_words(d, n - 1, w - v)]


def recording(seen):
    """A stand-in for homology._commutator_complex that appends (the block
    bases, the transposed ambient boundaries, the complex) to seen."""
    real = homology._commutator_complex

    def record(bases, transposes, offset):
        transposes = list(transposes)
        cx = real(bases, transposes, offset)
        seen.append((bases, transposes, cx))
        return cx

    return record


def assert_restricts(bases, transposes, cx):
    """Each stored map X_n of cx carries the block bases: B_{n-1} X_n =
    d_n B_n entry for entry, B_n the matrix whose columns are the rows of
    the basis of block n and d_n the transpose the builder wrote."""
    assert len(cx.boundaries) == len(transposes) == len(bases) - 1
    for dst, src, dt, x in zip(bases, bases[1:], transposes, cx.boundaries):
        assert basis_matrix(dt.cols, dst) @ x == dt.transpose() @ basis_matrix(dt.rows, src)


@pytest.mark.parametrize("d, top", [(1, 6), (2, 5), (3, 4)])
def test_weight_block_boundaries_match_fraction_oracle(d, top, monkeypatch):
    seen = []
    monkeypatch.setattr(homology, "_commutator_complex", recording(seen))
    fl = FreeLeibnizTruncation(d, top)
    for w in range(1, top + 1):
        fg_weight_complex(fl, w)
    assert len(seen) == top
    spans = fl.spans
    for w, (bases, transposes, cx) in enumerate(seen, start=1):
        # the block bases in decreasing lead order; the top block (w + 1, w)
        # is empty: no word of w + 1 letters has weight w
        assert bases == [spans.basis(n, (w,))[::-1] for n in range(1, w + 2)]
        for n in range(w + 2):
            assert spans.words(n, (w,)) == oracle_block_words(d, n, w), (w, n)
        assert spans.words(w + 1, (w,)) == []
        assert len(transposes) == w
        for n, dt in enumerate(transposes, start=2):
            # the builder writes d_n transposed: row k is d of source word k
            got = {(r, k): v for (k, r), v in entries_dict(dt).items()}
            want = oracle_weight_boundary(spans.words(n, (w,)), spans.words(n - 1, (w,)))
            assert got == want, (w, n)
        assert_restricts(bases, transposes, cx)


# --- the split by letter content: each weight block is the sum of its
# --- content blocks, and renaming the generators permutes those


def content(word, d):
    """The letter content of a block word: the count of each generator."""
    return tuple(sum(letter.count(i) for letter in word) for i in range(d))


def all_contents(d, w):
    return [c for c in itertools.product(range(w + 1), repeat=d) if sum(c) == w]


@pytest.mark.parametrize("d, top", [(1, 5), (2, 5), (3, 5), (4, 3)])
def test_content_blocks_times_orbits_sum_to_weight_block(d, top):
    fl = FreeLeibnizTruncation(d, top)
    for w in range(1, top + 1):
        orbits = content_orbits(d, w)
        reps = [c for c, _ in orbits]
        assert reps == sorted({tuple(sorted(c, reverse=True)) for c in all_contents(d, w)},
                              reverse=True)
        for c, size in orbits:
            assert size == len(set(itertools.permutations(c))), c
        whole = fg_weight_complex(fl, w)
        dims, betti = [0] * (w + 1), [0] * w
        for c, size in orbits:
            block = fg_weight_complex(fl, c)
            dims = [x + size * y for x, y in zip(dims, block.dims)]
            betti = [x + size * y for x, y in zip(betti, block.betti())]
        assert tuple(dims) == whole.dims, w
        assert tuple(betti) == whole.betti(), w


def oracle_content_span(d, n, c, words):
    """Span of the left-normed graded commutators [[y1, y2], ..., yn] of
    letters y, each a word on d generators of tensor degree 1, of total
    content c, as vectors over words: [u, y] = u(x)y - (-1)^{deg u} y(x)u."""
    vectors = []
    for seq in oracle_block_words(d, n, sum(c)):
        if content(seq, d) != c:
            continue
        elem = {seq[:1]: Fraction(1)}
        for length, y in enumerate(seq[1:], start=1):
            out = {}
            for t, x in elem.items():
                out[t + (y,)] = out.get(t + (y,), 0) + x
                out[(y,) + t] = out.get((y,) + t, 0) - (-1) ** length * x
            elem = out
        vectors.append([elem.get(t, 0) for t in words])
    return Subspace.from_spanning_columns(len(words), vectors)


@pytest.mark.parametrize("d, top", [(2, 5), (3, 4)])
def test_permuted_contents_rename_their_representative(d, top):
    fl = FreeLeibnizTruncation(d, top)
    spans = fl.spans
    for w in range(1, top + 1):
        for rep, size in content_orbits(d, w):
            want = fg_weight_complex(fl, rep).betti()
            perms = set(itertools.permutations(rep))
            assert len(perms) == size
            for c in perms:
                # on spans eliminated for c itself
                assert fg_weight_complex(fl, c).betti() == want, c
                for n in range(1, w + 1):
                    words = spans.words(n, c)
                    renamed = Subspace.from_sparse_columns(len(words), spans.elements(n, c))
                    direct = spans.span(n, c)
                    assert renamed == direct == oracle_content_span(d, n, c, words), (c, n)


def word_dict_span(spans, n, c, memo):
    """Block (n, c) of spans the old way: the graded commutators of the
    word-dict basis columns of the blocks below with each letter, built by
    graded_commutator and eliminated by Subspace.from_sparse_columns."""
    if (n, c) not in memo:
        words = spans.words(n, c)
        index = {t: i for i, t in enumerate(words)}
        if n <= 1:
            spanning = [{t: 1} for t in words]
        else:
            spanning = []
            for v in itertools.product(*(range(x + 1) for x in c)):
                below = tuple(a - b for a, b in zip(c, v))
                if not 0 < sum(v) <= sum(c) - n + 1:
                    continue
                below_words = spans.words(n - 1, below)
                for _, col in word_dict_span(spans, n - 1, below, memo).columns:
                    e = {below_words[i]: x for i, x in col}
                    spanning += [graded_commutator(e, {(y,): 1}) for y in spans.letters(v)]
        memo[n, c] = Subspace.from_sparse_columns(
            len(words), [[(index[t], x) for t, x in br.items()] for br in spanning if br])
    return memo[n, c]


def every_block():
    for d, top in [(1, 8), (2, 6), (3, 4)]:
        spans = FreeLeibnizTruncation(d, top).spans
        yield spans, [(n, c) for w in range(1, top + 1) for c in all_contents(d, w)
                      for n in range(1, w + 1)]
    for d in (2, 3, 4):
        yield (CommutatorSpans(lambda v, d=d: range(d) if v == (1,) else ()),
               [(n, (n,)) for n in range(7)])


def test_index_row_spans_match_the_word_dict_oracle():
    checked = 0
    for spans, blocks in every_block():
        memo = {}
        for n, c in blocks:
            sub = spans.span(n, c)
            assert sub == word_dict_span(spans, n, c, memo), (n, c)
            basis, elements = spans.basis(n, c), spans.elements(n, c)
            assert Subspace.from_sparse_columns(sub.ambient_dim, elements) == sub, (n, c)
            assert Subspace.from_sparse_columns(sub.ambient_dim, basis) == sub, (n, c)
            # forward echelon: one primitive row per dimension, column-sorted,
            # a positive lead first and the leads increasing
            assert len(basis) == sub.dim, (n, c)
            assert all(list(row) == sorted(row) and row[0][1] > 0 and all(x for _, x in row)
                       and math.gcd(*(x for _, x in row)) == 1 for row in basis), (n, c)
            leads = [row[0][0] for row in basis]
            assert leads == sorted(set(leads)), (n, c)
            if list(c) == sorted(c, reverse=True):
                # the basis rows themselves
                assert elements is basis, (n, c)
            else:
                # the sorted representative's, renamed: primitive, one per basis column
                assert len(elements) == sub.dim, (n, c)
                assert all(math.gcd(*(x for _, x in e)) == 1 for e in elements), (n, c)
            checked += 1
    assert checked == 274


def test_conjecture_check_eliminates_sorted_contents_only(monkeypatch):
    real_basis, grades = CommutatorSpans.basis, set()

    def record(self, n, c):
        grades.add(c)
        return real_basis(self, n, c)

    monkeypatch.setattr(CommutatorSpans, "basis", record)
    assert conjecture_check(3, 5).verdict == "PASS"
    assert grades and all(list(c) == sorted(c, reverse=True) for c in grades)
    assert {c for c in grades if sum(c) == 5} == {c for c, _ in content_orbits(3, 5)}


@pytest.mark.parametrize("d, top", [(2, 5), (3, 4)])
def test_content_block_boundaries_match_fraction_oracle(d, top, monkeypatch):
    seen = []
    monkeypatch.setattr(homology, "_commutator_complex", recording(seen))
    fl = FreeLeibnizTruncation(d, top)
    for w in range(1, top + 1):
        for c in all_contents(d, w):
            seen.clear()
            fg_weight_complex(fl, c)
            [(bases, transposes, cx)] = seen
            spans = fl.spans
            assert bases == [spans.basis(n, c)[::-1] for n in range(1, w + 2)]
            for n in range(w + 2):
                words = spans.words(n, c)
                assert len(set(words)) == len(words)
                assert set(words) == {t for t in oracle_block_words(d, n, w)
                                      if content(t, d) == c}, (c, n)
            assert_restricts(bases, transposes, cx)
            for n, dt in enumerate(transposes, start=2):
                src, dst = spans.words(n, c), spans.words(n - 1, c)
                got = {(dst[r], src[k]): v for (k, r), v in entries_dict(dt).items()}
                # the oracle on the whole weight block, read on this content
                words, targets = oracle_block_words(d, n, w), oracle_block_words(d, n - 1, w)
                want = {(targets[r], words[k]): v
                        for (r, k), v in oracle_weight_boundary(words, targets).items()
                        if content(words[k], d) == c}
                assert got == want, (c, n)


# --- the multigraded Witt formula: the number of Lyndon words of content c
# --- (Reutenauer, Free Lie Algebras, Oxford 1993)


def mobius(n):
    """The Moebius function, by trial division."""
    out, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return out


def multigraded_witt(c):
    """(1/w) sum over e | gcd(c) of mobius(e) (w/e)! / prod_i (c_i/e)!"""
    w, g = sum(c), math.gcd(*c)
    total = 0
    for e in range(1, g + 1):
        if g % e == 0:
            multinomial = math.factorial(w // e)
            for x in c:
                multinomial //= math.factorial(x // e)
            total += mobius(e) * multinomial
    assert total % w == 0
    return total // w


def lyndon_count(c):
    """Words of content c strictly smaller than all their proper rotations."""
    d, w = len(c), sum(c)
    return sum(1 for t in itertools.product(range(d), repeat=w)
               if tuple(map(t.count, range(d))) == c
               and all(t < t[k:] + t[:k] for k in range(1, w)))


def test_multigraded_witt_counts_lyndon_words():
    for d, top in [(1, 6), (2, 7), (3, 5)]:
        for w in range(1, top + 1):
            assert sum(multigraded_witt(c) for c in all_contents(d, w)) == witt_dim(d, w)
            for c in all_contents(d, w):
                assert multigraded_witt(c) == lyndon_count(c), c


@pytest.mark.parametrize("d, top", [(1, 6), (2, 6), (3, 6)])
def test_content_block_h1_is_its_lyndon_count(d, top):
    fl = FreeLeibnizTruncation(d, top)
    for w in range(1, top + 1):
        for c, _ in content_orbits(d, w):
            betti = fg_weight_complex(fl, c).betti()
            assert betti[0] == multigraded_witt(c), c
            assert all(h == 0 for h in betti[1:]), c


# --- the triangular block bases against the reduced path they replaced:
# --- the canonical spans and exactla.restrict_map


def reduced_complex(spans, blocks, transposes, offset):
    """The complex of the same blocks restricted by restrict_map between
    the canonical reduced spans of the blocks."""
    subs = [spans.span(n, c) for n, c in blocks]
    return ChainComplex(offset, tuple(s.dim for s in subs),
                        tuple(restrict_map(dt.transpose(), src, dst)
                              for dt, src, dst in zip(transposes, subs[1:], subs)))


def test_triangular_bases_match_the_reduced_path(monkeypatch):
    seen, cases = [], []
    monkeypatch.setattr(homology, "_commutator_complex", recording(seen))
    for d, top in [(1, 10), (2, 6), (3, 4)]:
        fl = FreeLeibnizTruncation(d, top)
        for w in range(1, top + 1):
            for c in all_contents(d, w):
                fg_weight_complex(fl, c)
                cases.append((fl.spans, [(n, c) for n in range(1, w + 2)], -1,
                              lambda n, c, words, d=d: oracle_content_span(d, n, c, words)))
    for g in CORPUS.values():
        fg_subcomplex(g, 5)
        cases.append((CommutatorSpans(lambda v, d=g.dim: range(d) if v == (1,) else ()),
                      [(n, (n,)) for n in range(6)], 1,
                      lambda n, c, words, d=g.dim: (oracle_commutator_span(d, n) if n
                                                    else Subspace.full(1))))
    assert len(seen) == len(cases) == 10 + 27 + 34 + len(CORPUS)
    maps = 0
    for (bases, transposes, cx), (spans, blocks, order, oracle) in zip(seen, cases):
        # the complex reads each block's one basis, a free block's in
        # decreasing lead order
        assert bases == [spans.basis(n, c)[::order] for n, c in blocks]
        want = reduced_complex(spans, blocks, transposes, cx.offset)
        assert cx.dims == want.dims and cx.betti() == want.betti(), blocks
        assert [rank(x) for x in cx.boundaries] == [rank(x) for x in want.boundaries], blocks
        for n, c in blocks:
            words = spans.words(n, c)
            spanned = Subspace.from_sparse_columns(len(words), spans.basis(n, c))
            assert spanned == spans.span(n, c) == oracle(n, c, words), (n, c)
        maps += len(cx.boundaries)
    # w maps per content block of weight w: 55, 112 and 105, and 5 per algebra
    assert maps == 55 + 112 + 105 + 5 * len(CORPUS)


def test_a_boundary_outside_the_spans_raises_not_invariant(monkeypatch, capsys):
    # every entry of the free tensor boundary moved to the next target
    # word: the weight-3 blocks on two generators then leave their spans,
    # which both restrictions refuse, and the CLI reports it as internal
    real = homology._tensor_boundary

    def moved(words, targets, left_normed):
        dt = real(words, targets, left_normed)
        return Matrix(dt.rows, dt.cols, [[((r + 1) % dt.cols, x) for r, x in row]
                                         for row in dt.sparse_rows])

    monkeypatch.setattr(homology, "_tensor_boundary", moved)
    fl, c = FreeLeibnizTruncation(2, 3), (2, 1)
    with pytest.raises(NotInvariant):
        fg_weight_complex(fl, c)
    with pytest.raises(NotInvariant):
        reduced_complex(fl.spans, [(n, c) for n in range(1, 5)],
                        [moved(fl.spans.words(n, c), fl.spans.words(n - 1, c), fl._left_normed)
                         for n in range(2, 5)], 1)
    assert cli.entrypoint(["free-conjecture", "--generators", "2", "--max-weight", "3"]) == 1
    assert capsys.readouterr().err.startswith("invariant violation (NotInvariant): ")


def test_a_truncation_is_freed_without_the_cyclic_collector():
    # the spans of a truncation hold its letters, not the truncation, so
    # dropping the last reference frees the memo at once
    enabled = gc.isenabled()
    gc.disable()
    try:
        fl = FreeLeibnizTruncation(2, 4)
        fg_weight_complex(fl, (2, 2))
        ref = weakref.ref(fl)
        del fl
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
