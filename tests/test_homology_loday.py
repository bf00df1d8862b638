import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibhom import exactla, homology
from leibhom.dgcat import classical_ce, classical_ce_cochain
from leibhom.exactla import Matrix, ShapeMismatch, Subspace, add_into, restrict_map
from leibhom.freealg import FreeLeibnizTruncation
from leibhom.homology import (
    ChainComplex,
    DifferentialSquareNonzero,
    TrivialCoefficients,
    UnsupportedCoefficients,
    ce_chain,
    ce_cochain,
    ce_projection,
    fg_subcomplex,
    fg_weight_complex,
    loday_cochain_complex,
    loday_complex,
    trivial_coefficients,
)
from leibhom.leibcore import (
    LieModule,
    Representation,
    adjoint_lie_module,
    adjoint_representation,
    check_lie_module,
    check_representation,
    lie_module_lift,
    lie_quotient,
    tensor3,
)

from conftest import (
    CORPUS,
    LIE_CORPUS,
    bilinear,
    character_module,
    conjugate,
    dense,
    entries_dict,
    quotient_adjoint_module,
    random_algebra,
    representations_for,
    rescaled_heis3,
    unimodular,
)


# --- an oracle that shares nothing with the library: its own word order,
# --- its own boundary formula, its own elimination over plain Fractions

def oracle_rref(rows):
    """Reduced row echelon form of a list of rows over plain Fractions:
    (reduced rows, pivot columns), the first len(pivots) rows being the
    nonzero ones."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    pivots = []
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(m)):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = Fraction(1) / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
    return m, pivots


def oracle_rank(rows):
    return len(oracle_rref(rows)[1])


def dense_rank_oracle(m):
    """Rank of a Matrix by fraction-free Bareiss elimination over every
    cell of its denominator-cleared rows: the dense algorithm the sparse
    library rank is checked against."""
    if m.rows == 0 or m.cols == 0:
        return 0
    a = []
    for row in m.entries:
        den = 1
        for x in row:
            den = lcm(den, x.denominator)
        a.append([int(x * den) for x in row])
    nrows, ncols = m.rows, m.cols
    r = 0
    prev = 1
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        prow = a[r]
        pval = prow[c]
        for i in range(r + 1, nrows):
            arow = a[i]
            t = arow[c]
            if t:
                for j in range(c + 1, ncols):
                    arow[j] = (pval * arow[j] - t * prow[j]) // prev
                arow[c] = 0
            elif pval != prev:
                for j in range(c + 1, ncols):
                    arow[j] = (pval * arow[j]) // prev
        prev = pval
        r += 1
        if r == nrows:
            break
    return r


def oracle_words(dim, n):
    if n == 0:
        return [()]
    shorter = oracle_words(dim, n - 1)
    return [w + (i,) for w in shorter for i in range(dim)]


def oracle_boundary(structure, n):
    """Boundary on bare tensor words with the module dropped (trivial
    1-dim coefficients): sum over i < j of (-1)^j with [x_j, x_i] written
    into slot i and slot j removed."""
    dim = len(structure)
    src = oracle_words(dim, n)
    dst = oracle_words(dim, n - 1)
    dst_index = {w: k for k, w in enumerate(dst)}
    rows = [[Fraction(0)] * len(src) for _ in dst]
    for c, word in enumerate(src):
        for j in range(2, n + 1):
            for i in range(1, j):
                coeffs = structure[word[j - 1]][word[i - 1]]
                rest = word[:i - 1] + word[i:j - 1] + word[j:]
                for k, v in enumerate(coeffs):
                    if v:
                        target = rest[:i - 1] + (k,) + rest[i - 1:]
                        rows[dst_index[target]][c] += Fraction(-1) ** j * v
    return rows


def oracle_betti(g, n_max):
    ranks = [0] + [oracle_rank(oracle_boundary(dense(g.structure, g.dim, g.dim), n))
                   for n in range(1, n_max + 2)]
    return tuple(g.dim ** n - ranks[n] - ranks[n + 1] for n in range(n_max + 1))


def oracle_commutator_span(dim, n):
    """Span of the left-normed graded commutators of n letters, each of
    degree 1, as vectors over oracle_words(dim, n):
    [u, x] = u(x)x - (-1)^{deg u} x(x)u."""
    elems = [{(i,): Fraction(1)} for i in range(dim)]
    for length in range(1, n):
        sign = (-1) ** length
        grown = []
        for u in elems:
            for x in range(dim):
                out = {}
                for w, c in u.items():
                    out[w + (x,)] = out.get(w + (x,), 0) + c
                    out[(x,) + w] = out.get((x,) + w, 0) - sign * c
                grown.append(out)
        elems = grown
    words = oracle_words(dim, n)
    return Subspace.from_spanning_columns(
        len(words), [[e.get(w, 0) for w in words] for e in elems])


@pytest.mark.parametrize("name", list(CORPUS))
def test_fg_subcomplex_is_restricted_oracle_boundary(name):
    g = CORPUS[name]
    cx = fg_subcomplex(g, 4)
    spans = [Subspace.full(1)] + [oracle_commutator_span(g.dim, n) for n in range(1, 5)]
    assert cx.dims == tuple(s.dim for s in spans)
    for n in range(1, 5):
        ambient = Matrix.from_rows(oracle_boundary(dense(g.structure, g.dim, g.dim), n))
        want = restrict_map(ambient, spans[n], spans[n - 1])
        assert cx.diffs[n - 1].entries == want.entries, n


def test_oracle_agrees_with_builder_on_a2():
    got = oracle_betti(CORPUS["A2"], 3)
    assert got == (1, 1, 1, 1)
    cx = loday_complex(CORPUS["A2"], trivial_coefficients(), 5)
    assert cx.betti()[:4] == got


def test_oracle_agrees_on_whole_corpus():
    for name, g in CORPUS.items():
        want = oracle_betti(g, 2)
        cx = loday_complex(g, trivial_coefficients(), 4)
        assert cx.betti()[:3] == want, name


def test_frozen_a2_boundary_entries():
    cx = loday_complex(CORPUS["A2"], trivial_coefficients(), 3)
    d2 = cx.diffs[1]
    assert entries_dict(d2) == {(1, 0): Fraction(1)}
    d3 = cx.diffs[2]
    assert entries_dict(d3) == {
        (1, 0): Fraction(-1),   # xxx -> -(x, y)
        (3, 1): Fraction(1),    # xxy -> (y, y)
        (3, 2): Fraction(-1),   # xyx -> -(y, y)
        (3, 4): Fraction(-1),   # yxx -> -(y, y)
    }


@pytest.mark.parametrize("d", [1, 2, 3])
def test_abelian_betti_powers(d):
    g = CORPUS[f"abelian{d}"]
    cx = loday_complex(g, trivial_coefficients(), 5)
    assert cx.betti()[:5] == tuple(d ** n for n in range(5))


def test_degree_one_duality_on_corpus():
    for name, g in CORPUS.items():
        chain = loday_complex(g, trivial_coefficients(), 3)
        cochain = loday_cochain_complex(g, trivial_coefficients(), 3)
        assert chain.betti()[0] == cochain.betti()[0], name
        assert chain.betti()[1] == cochain.betti()[1], name


# --- duality: every cochain complex is the transposed chain complex of the
# --- dual coefficients, built by hand here from the public API

def contragredient(mod):
    """M* with x.f = -f o x: entry [a][u][u2] = -action[a][u2][u]."""
    d = mod.dim
    n = mod.action.cols // d
    action = dense(mod.action, n, d)
    return LieModule(d, tensor3(n, d, d, {
        (a, u, u2): -action[a][u2][u]
        for a in range(n) for u in range(d) for u2 in range(d)}))


def dual_representation(rep):
    """Two-sided dual under the corrected rules: left' = -L^T and
    right' = R^T + L^T, transposing the two module slots."""
    d = rep.dim
    n = rep.left_action.cols // d
    L, R = dense(rep.left_action, n, d), dense(rep.right_action, d, n)
    left = tensor3(n, d, d, {
        (x, u, u2): -L[x][u2][u]
        for x in range(n) for u in range(d) for u2 in range(d)})
    right = tensor3(d, n, d, {
        (u, x, u2): R[u2][x][u] + L[x][u2][u]
        for x in range(n) for u in range(d) for u2 in range(d)})
    return Representation(d, rep.basis_names, left, right)


def dual_pairs(g, n):
    """(label, cochain complex, chain complex with the dual coefficients)."""
    qdata = lie_quotient(g)
    h = qdata.quotient
    for dim in (1, 2):
        triv = trivial_coefficients(dim)
        yield (f"loday trivial{dim}", loday_cochain_complex(g, triv, n),
               loday_complex(g, triv, n + 1))
        yield (f"ce trivial{dim}", ce_cochain(g, triv, n), ce_chain(g, triv, n + 1))
        yield (f"classical trivial{dim}", classical_ce_cochain(h, triv, n),
               classical_ce(h, triv, n + 1))
    for maker in (quotient_adjoint_module, character_module):
        mod = maker(qdata)
        if mod is None:
            continue
        dual = contragredient(mod)
        label = maker.__name__
        yield (f"loday {label}", loday_cochain_complex(g, mod, n),
               loday_complex(g, dual, n + 1))
        yield (f"ce {label}", ce_cochain(g, mod, n), ce_chain(g, dual, n + 1))
        yield (f"classical {label}", classical_ce_cochain(h, mod, n),
               classical_ce(h, dual, n + 1))
    for rname, rep in representations_for(g).items():
        co, dual = rep, dual_representation(rep)
        yield (f"loday rep {rname} corrected", loday_cochain_complex(g, co, n),
               loday_complex(g, dual, n + 1))
        yield (f"loday rep {rname} left",
               loday_cochain_complex(g, co, n, _rep_rule="left"),
               loday_complex(g, dual, n + 1, _rep_rule="left"))


DUAL_ALGEBRAS = dict(CORPUS)
DUAL_ALGEBRAS.update({f"{name} conjugate{seed}": conjugate(g, *unimodular(random.Random(seed),
                                                                          g.dim))
                      for seed, (name, g) in enumerate(CORPUS.items())})


@pytest.mark.parametrize("name", list(DUAL_ALGEBRAS))
def test_dual_module_matches_the_oracles(name):
    g = DUAL_ALGEBRAS[name]
    h = g.quotient_data.quotient
    zero = LieModule(2, Matrix.zeros(2, 2 * h.dim))
    for label, coeffs in [*oracle_coefficient_cases(g), ("zero", zero)]:
        dual = homology._dual(g, coeffs)
        if isinstance(coeffs, TrivialCoefficients) or coeffs is zero:
            assert dual is coeffs, label
            continue
        want, again = oracle_dual(coeffs), homology._dual(g, dual)
        if isinstance(coeffs, Representation):
            tables = ("left_action", "right_action")
            assert check_representation(g, dual) == (), label
        else:
            tables = ("action",)
            assert check_lie_module(h, dual) == (), label
        for t in tables:
            assert getattr(dual, t).entries == getattr(want, t).entries, (label, t)
            assert getattr(again, t).entries == getattr(coeffs, t).entries, (label, t)


def test_cochain_builders_refuse_a_representation_before_dualizing_it():
    g = CORPUS["heis3"]
    h = g.quotient_data.quotient
    missized = Representation(1, ("m0",), Matrix.zeros(1, 2), Matrix.zeros(1, 2))
    for rep in (adjoint_representation(g), missized):
        with pytest.raises(UnsupportedCoefficients):
            ce_cochain(g, rep, 2)
        with pytest.raises(UnsupportedCoefficients):
            classical_ce_cochain(h, rep, 2)
    for build in (loday_complex, loday_cochain_complex):
        with pytest.raises(ValueError,
                           match="^representation tables do not match the algebra dimension$"):
            build(g, missized, 2)


@pytest.mark.parametrize("name", list(CORPUS))
def test_cochain_is_transpose_of_dual_chain(name):
    # the cochain differential out of degree k is the transposed chain
    # boundary into degree k, so the chain side is built one degree higher
    for label, cochain, chain in dual_pairs(CORPUS[name], 4):
        assert cochain.dims == chain.dims[:-1], label
        assert len(cochain.diffs) == 4, label
        for k, d in enumerate(cochain.diffs):
            assert d.entries == chain.diffs[k].transpose().entries, (label, k)


def family_builders(g):
    """(label, n -> complex stored up to degree n) for every complex family
    over g with every coefficient kind; the classical families run over the
    maximal Lie quotient."""
    qdata = lie_quotient(g)
    modules = [(maker.__name__, maker(qdata))
               for maker in (quotient_adjoint_module, character_module)]
    modules = [(label, mod) for label, mod in modules if mod is not None]
    kinds = [(f"trivial{dim}", trivial_coefficients(dim)) for dim in (1, 2)]
    kinds += [(f"lie {label}", mod) for label, mod in modules]
    reps = [(f"rep {r}", rep) for r, rep in representations_for(g).items()]
    for label, c in kinds + reps:
        yield f"loday {label}", lambda n, c=c: loday_complex(g, c, n)
        yield f"loday_cochain {label}", lambda n, c=c: loday_cochain_complex(g, c, n)
    for label, c in kinds:
        yield f"ce {label}", lambda n, c=c: ce_chain(g, c, n)
        yield f"ce_cochain {label}", lambda n, c=c: ce_cochain(g, c, n)
    for label, mod in [("trivial", trivial_coefficients()), *modules]:
        yield f"classical {label}", lambda n, mod=mod: classical_ce(qdata.quotient, mod, n)
        yield (f"classical_cochain {label}",
               lambda n, mod=mod: classical_ce_cochain(qdata.quotient, mod, n))
    yield "fg", lambda n: fg_subcomplex(g, n)


@pytest.mark.parametrize("name", list(CORPUS))
def test_complex_reports_only_its_complete_degrees(name):
    # stored up to degree n, a complex reports degrees 0..n-1, each as
    # it reads with the complex stored one degree higher
    n = 3
    for label, build in family_builders(CORPUS[name]):
        cx, higher = build(n), build(n + 1)
        assert cx.degree_range() == tuple(range(n)), label
        assert len(cx.betti()) == n, label
        assert cx.betti() == higher.betti()[:n], label
        with pytest.raises(ValueError):
            cx.homology(n)


def test_heis3_top_stored_degree_is_not_reported():
    # the true H_3 of heis3 is 10; degree 3 without its incoming map would read 24
    g = CORPUS["heis3"]
    for build in (loday_complex, loday_cochain_complex):
        cx = build(g, trivial_coefficients(), 3)
        assert cx.betti() == (1, 2, 5)
        assert build(g, trivial_coefficients(), 4).betti() == (1, 2, 5, 10)
        for query in (cx.homology, cx.cycle_space, cx.boundary_space):
            with pytest.raises(ValueError):
                query(3)


# the builders that take coefficients, as (g, coefficients, n_max) -> complex;
# the classical ones run over the maximal Lie quotient of g
COEFFICIENT_BUILDERS = {
    "loday_complex": loday_complex,
    "loday_cochain_complex": loday_cochain_complex,
    "ce_chain": ce_chain,
    "ce_cochain": ce_cochain,
    "classical_ce": lambda g, c, n: classical_ce(g.quotient_data.quotient, c, n),
    "classical_ce_cochain": lambda g, c, n: classical_ce_cochain(g.quotient_data.quotient, c, n),
    "ce_projection": ce_projection,
}

NEGATIVE_N_MAX = {name: lambda g, build=build: build(g, trivial_coefficients(), -1)
                  for name, build in COEFFICIENT_BUILDERS.items()}
NEGATIVE_N_MAX["fg_subcomplex"] = lambda g: fg_subcomplex(g, -1)


@pytest.mark.parametrize("builder", list(NEGATIVE_N_MAX))
def test_every_builder_refuses_a_negative_n_max(builder):
    with pytest.raises(ValueError, match="^n_max must be nonnegative$"):
        NEGATIVE_N_MAX[builder](CORPUS["heis3"])


# coefficients that no builder over A2, whose Lie quotient is 1-dim, takes;
# its own two-sided modules only the tensor-module builders take
BAD_COEFFICIENTS = {
    "trivial0": lambda g: TrivialCoefficients(0),
    "trivial-1": lambda g: TrivialCoefficients(-1),
    "lie module over heis3": lambda g: adjoint_lie_module(LIE_CORPUS["heis3"]),
    "representation of heis3": lambda g: adjoint_representation(CORPUS["heis3"]),
    "representation": adjoint_representation,
}


@pytest.mark.parametrize("builder, coefficients", [
    (b, c) for b in COEFFICIENT_BUILDERS for c in BAD_COEFFICIENTS
    if c != "representation" or not b.startswith("loday")])
def test_every_builder_refuses_bad_coefficients_before_building(monkeypatch, builder,
                                                                coefficients):
    def built(*args, **kwargs):
        raise AssertionError("a complex was built")

    monkeypatch.setattr(homology, "_complex", built)
    g = CORPUS["A2"]
    with pytest.raises(ValueError):
        COEFFICIENT_BUILDERS[builder](g, BAD_COEFFICIENTS[coefficients](g), 3)


def test_mis_shaped_complex_raises_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        ChainComplex(0, (1, 2), (Matrix.zeros(2, 1),))
    with pytest.raises(ShapeMismatch):
        ChainComplex(0, (1, 2, 1), (Matrix.zeros(1, 2),))
    with pytest.raises(ShapeMismatch):
        ChainComplex(0, (2, 1), (Matrix.zeros(1, 2),), raising=True)


def test_a2_cochain_betti():
    cx = loday_cochain_complex(CORPUS["A2"], trivial_coefficients(), 5)
    assert cx.betti()[:4] == (1, 1, 1, 1)


def test_lie_coefficient_complexes_build_on_corpus():
    for name, g in CORPUS.items():
        qdata = lie_quotient(g)
        for maker in (quotient_adjoint_module, character_module):
            mod = maker(qdata)
            if mod is None:
                continue
            loday_complex(g, mod, 4)
            loday_cochain_complex(g, mod, 4)


# --- the action-rule landscape for genuinely two-sided coefficients

HEMI_ADJ = (CORPUS["hemi2"], adjoint_representation(CORPUS["hemi2"]))
A2_ADJ = (CORPUS["A2"], adjoint_representation(CORPUS["A2"]))


@pytest.mark.parametrize("rule", ["corrected", "left"])
def test_chain_rules_that_square_to_zero(rule):
    g, rep = HEMI_ADJ
    loday_complex(g, rep, 4, _rep_rule=rule)


@pytest.mark.parametrize("rule", ["right", "naive"])
def test_chain_rules_that_fail(rule):
    g, rep = HEMI_ADJ
    with pytest.raises(DifferentialSquareNonzero):
        loday_complex(g, rep, 4, _rep_rule=rule)


@pytest.mark.parametrize("rule", ["corrected", "left", "right", "naive"])
def test_all_chain_rules_pass_on_a2_adjoint(rule):
    # every composite boundary monomial on [x,x] = y factors through the
    # span of y, which all four candidate actions kill, so this witness
    # cannot separate the rules
    g, rep = A2_ADJ
    loday_complex(g, rep, 4, _rep_rule=rule)


@pytest.mark.parametrize("rule", ["corrected", "left"])
def test_cochain_rules_that_square_to_zero(rule):
    g, rep = HEMI_ADJ
    loday_cochain_complex(g, rep, 4, _rep_rule=rule)


def test_naive_cochain_rule_fails():
    # the value-side naive rule is no chain rule on the dual module, so the
    # boundaries of the dual module are built from the oracle's cochain
    # rule table
    g, rep = HEMI_ADJ
    L, R = dense(rep.left_action, g.dim, rep.dim), dense(rep.right_action, rep.dim, g.dim)
    first, later = oracle_dual_chain_actions(L, R, "naive", rep.dim, True)
    boundaries = oracle_loday_boundaries(g, rep.dim, first, later, 4)
    dims = [rep.dim * g.dim ** n for n in range(5)]
    with pytest.raises(DifferentialSquareNonzero):
        ChainComplex(0, tuple(dims), tuple(
            Matrix.from_entries(dims[n], dims[n + 1], e) for n, e in enumerate(boundaries)),
            raising=True)


@pytest.mark.parametrize("build", [loday_complex, loday_cochain_complex])
def test_unknown_rule_is_an_internal_fault(build):
    # a KeyError, not the ValueError the CLI reports as bad input
    g, rep = HEMI_ADJ
    with pytest.raises(KeyError):
        build(g, rep, 4, _rep_rule="bogus")


def test_lifted_cochain_collapses_to_one_sided_branch():
    for name, g in CORPUS.items():
        qdata = lie_quotient(g)
        for maker in (quotient_adjoint_module, character_module):
            mod = maker(qdata)
            if mod is None:
                continue
            lift = lie_module_lift(g, mod)
            two = loday_cochain_complex(g, lift, 4)
            one = loday_cochain_complex(g, mod, 4)
            assert two.dims == one.dims, name
            for a, b in zip(two.diffs, one.diffs):
                assert a.entries == b.entries, name


LIFT_ALGEBRAS = dict(CORPUS)
LIFT_ALGEBRAS.update({f"random{s}": random_algebra(random.Random(s)) for s in range(4)})


@pytest.mark.parametrize("name", list(LIFT_ALGEBRAS))
def test_lie_module_is_its_lift_under_right_and_left_rules(name):
    # a Lie module acts as its lift: the right-action chain rule, and the
    # left-action rule on the dual of the lift, give the one-sided
    # complexes matrix for matrix
    g = LIFT_ALGEBRAS[name]
    qdata = lie_quotient(g)
    for maker in (quotient_adjoint_module, character_module):
        mod = maker(qdata)
        if mod is None:
            continue
        lift = lie_module_lift(g, mod)
        one = loday_complex(g, mod, 4)
        two = loday_complex(g, lift, 4, _rep_rule="right")
        assert one.diffs == two.diffs, (name, maker.__name__)
        one = loday_cochain_complex(g, mod, 4)
        two = loday_cochain_complex(g, lift, 4, _rep_rule="left")
        assert one.diffs == two.diffs, (name, maker.__name__)


def test_rep_complexes_build_for_corpus_representations():
    for name, g in CORPUS.items():
        for rname, rep in representations_for(g).items():
            loday_complex(g, rep, 3)
            loday_cochain_complex(g, rep, 3)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_betti_invariant_under_base_change(seed):
    rng = random.Random(seed)
    base = rng.choice([CORPUS["A2"], CORPUS["r2"], CORPUS["hemi2"]])
    p, pinv = unimodular(rng, base.dim)
    moved = conjugate(base, p, pinv)
    for g0, g1 in [(base, moved)]:
        b0 = loday_complex(g0, trivial_coefficients(), 4).betti()[:4]
        b1 = loday_complex(g1, trivial_coefficients(), 4).betti()[:4]
        assert b0 == b1


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_builders_never_raise_on_valid_input(seed):
    rng = random.Random(seed)
    base = rng.choice(list(CORPUS.values()))
    p, pinv = unimodular(rng, base.dim)
    g = conjugate(base, p, pinv)
    loday_complex(g, adjoint_representation(g), 3)
    loday_cochain_complex(g, adjoint_representation(g), 3)


def test_betti_ranks_each_differential_once(monkeypatch):
    real = exactla.rank
    calls = []

    def counting(m, pivots=None):
        calls.append(m)
        return real(m, pivots)

    # the sweep calls rank by the name homology imported
    monkeypatch.setattr(exactla, "rank", counting)
    monkeypatch.setattr(homology, "rank", counting)
    cx = loday_complex(CORPUS["heis3"], trivial_coefficients(), 5)
    first = cx.betti()
    assert len(calls) == len(cx.diffs)
    assert cx.betti() == first and len(calls) == len(cx.diffs)
    # each differential is ranked without the rows the map below pinned
    for i, (m, d) in enumerate(zip(calls, cx.diffs)):
        assert m.cols == d.cols
        assert m.rows == d.rows - (cx.ranks[i - 1] if i else 0)


def _swept_ranks_hold(cx):
    assert cx.ranks == tuple(exactla.rank(d) for d in cx.diffs)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(list(CORPUS)),
       st.sampled_from(["trivial", "lie", "rep"]), st.booleans(), st.integers(2, 4))
def test_swept_ranks_equal_per_matrix_ranks(seed, name, kind, raising, n_max):
    g = CORPUS[name]
    n_max = min(n_max, 6 - g.dim)
    if seed % 2:
        g = conjugate(g, *unimodular(random.Random(seed), g.dim))
    if kind == "trivial":
        coefficients = trivial_coefficients(1 + seed % 2)
    elif kind == "lie":
        qdata = lie_quotient(g)
        coefficients = (quotient_adjoint_module(qdata) or character_module(qdata)
                        or trivial_coefficients())
    else:
        reps = representations_for(g)
        coefficients = reps[sorted(reps)[seed % len(reps)]]
    build = loday_cochain_complex if raising else loday_complex
    _swept_ranks_hold(build(g, coefficients, n_max))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(list(CORPUS)), st.integers(0, 4))
def test_swept_ranks_on_commutator_subcomplexes(seed, name, n_max):
    g = CORPUS[name]
    if seed % 2:
        g = conjugate(g, *unimodular(random.Random(seed), g.dim))
    _swept_ranks_hold(fg_subcomplex(g, n_max))


@pytest.mark.parametrize("d, w", [(1, 4), (2, 1), (2, 4), (3, 3)])
def test_swept_ranks_on_weight_complexes(d, w):
    cx = fg_weight_complex(FreeLeibnizTruncation(d, w), w)
    assert cx.offset == 1
    _swept_ranks_hold(cx)


@pytest.mark.parametrize("raising", [False, True])
def test_swept_ranks_edge_cases(raising):
    g = CORPUS["heis3"]
    build = loday_cochain_complex if raising else loday_complex
    assert build(g, trivial_coefficients(), 0).ranks == ()
    assert build(g, trivial_coefficients(), 1).ranks == (0,)
    assert build(CORPUS["abelian3"], trivial_coefficients(), 3).ranks == (0, 0, 0)
    lie = adjoint_lie_module(lie_quotient(g).quotient)
    for n_max in (0, 1):
        _swept_ranks_hold(build(g, lie, n_max))

    # a zero-dimensional degree between two zero maps
    cx = ChainComplex(0, (2, 0, 2), (Matrix.zeros(2, 0), Matrix.zeros(0, 2)), raising=raising)
    assert cx.ranks == (0, 0) and cx.betti() == (2, 0)
    # offset 2: the map below pins the row the map above would share
    below, above = Matrix.from_rows([[1, 1]]), Matrix.from_rows([[1], [-1]])
    cx = ChainComplex(2, (1, 2, 1), (below, above), raising=raising)
    assert cx.ranks == (1, 1) and cx.betti() == (0, 0)
    _swept_ranks_hold(cx)


# --- the tensor-module boundary entry for entry: the per-word builder of
# --- every slot and module action, with the coefficient actions read off
# --- the public tables rule by rule, against the matrices _loday hands to
# --- _complex before the d o d gate

def oracle_tensor_boundary(words, index, bracket, m_dim=1, first=None, later=None):
    """Entries of d: m (x) T^n -> m (x) T^{n-1} on the source words of T^n,
    all of length n; index numbers the target words.  bracket(a, b) lists
    the (letter, c) terms of [b, a]; first/later are the chain actions
    (u, x) -> Vec of the j = 1 and j >= 2 slots, or None."""
    rows_w, cols_w = len(index), len(words)
    entries = {}
    for widx, word in enumerate(words):
        for j in range(1, len(word) + 1):
            sj = -1 if j % 2 else 1
            for i in range(1, j):
                head, tail = word[:i - 1], word[i:j - 1] + word[j:]
                for k, c in bracket(word[i - 1], word[j - 1]):
                    r = index[head + (k,) + tail]
                    for u in range(m_dim):
                        add_into(entries, (u * rows_w + r, u * cols_w + widx), sj * c)
            if first is not None:
                sa = -sj
                r = index[word[:j - 1] + word[j:]]
                x = word[j - 1]
                for u in range(m_dim):
                    vec = first(u, x) if j == 1 else later(u, x)
                    for u2, c in enumerate(vec):
                        if c:
                            add_into(entries, (u2 * rows_w + r, u * cols_w + widx), sa * c)
    return entries


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vneg(a):
    return tuple(-x for x in a)


# (first, later) chain actions (L, R, u, x) -> Vec with L[x][u] = [e_x, f_u]
# and R[u][x] = [f_u, e_x]
ORACLE_CHAIN_RULES = {
    "corrected": (lambda L, R, u, x: _vneg(_vadd(R[u][x], L[x][u])),
                  lambda L, R, u, x: _vneg(L[x][u])),
    "left": (lambda L, R, u, x: _vneg(L[x][u]), lambda L, R, u, x: _vneg(L[x][u])),
    "right": (lambda L, R, u, x: R[u][x], lambda L, R, u, x: R[u][x]),
    "naive": (lambda L, R, u, x: _vadd(R[u][x], L[x][u]), lambda L, R, u, x: R[u][x]),
}

# (first, later) actions (L, R, x, u) -> Vec on the value of a cochain:
# "corrected" and "left" read the chain rules of those names on the dual
# module, and "naive" is no chain rule on it
ORACLE_COCHAIN_RULES = {
    "corrected": (lambda L, R, x, u: _vneg(R[u][x]), lambda L, R, x, u: L[x][u]),
    "left": (lambda L, R, x, u: L[x][u], lambda L, R, x, u: L[x][u]),
    "naive": (lambda L, R, x, u: _vadd(L[x][u], R[u][x]), lambda L, R, x, u: L[x][u]),
}


def oracle_coefficient_cases(g):
    """(label, coefficients) for every coefficient kind over g."""
    for dim in (1, 2):
        yield f"trivial{dim}", trivial_coefficients(dim)
    qdata = lie_quotient(g)
    for maker in (quotient_adjoint_module, character_module):
        mod = maker(qdata)
        if mod is not None:
            yield f"lie:{maker.__name__}", mod
    for rname, rep in representations_for(g).items():
        yield f"rep:{rname}", rep


def oracle_tables(g, coeffs):
    """(m_dim, L, R, two_sided) with L[x][u] = [e_x, f_u] and R[u][x] =
    [f_u, e_x], a Lie module read through its lift; L and R are None for
    trivial coefficients."""
    if isinstance(coeffs, TrivialCoefficients):
        return coeffs.dim, None, None, False
    if isinstance(coeffs, Representation):
        return (coeffs.dim, dense(coeffs.left_action, g.dim, coeffs.dim),
                dense(coeffs.right_action, coeffs.dim, g.dim), True)
    qdata = lie_quotient(g)
    units = [tuple(Fraction(int(t == u)) for t in range(coeffs.dim)) for u in range(coeffs.dim)]
    action = dense(coeffs.action, qdata.quotient.dim, coeffs.dim)
    projection = qdata.projection.transpose().entries
    L = [[bilinear(action, projection[x], units[u]) for u in range(coeffs.dim)]
         for x in range(g.dim)]
    R = [[_vneg(L[x][u]) for x in range(g.dim)] for u in range(coeffs.dim)]
    return coeffs.dim, L, R, False


def oracle_dual(coeffs):
    if isinstance(coeffs, Representation):
        return dual_representation(coeffs)
    return coeffs if isinstance(coeffs, TrivialCoefficients) else contragredient(coeffs)


def oracle_chain_actions(L, R, rule, two_sided):
    if L is None:
        return None, None
    if not two_sided:
        first = later = lambda u, x: R[u][x]
        return first, later
    f, l = ORACLE_CHAIN_RULES[rule]
    return (lambda u, x: f(L, R, u, x)), (lambda u, x: l(L, R, u, x))


def oracle_dual_chain_actions(L, R, rule, m_dim, two_sided):
    """The value-side cochain actions read as chain actions of the dual
    module: entry [u][x][u2] = act(x, u2)[u]."""
    if L is None:
        return None, None
    if not two_sided:
        f = l = lambda L, R, x, u: L[x][u]
    else:
        f, l = ORACLE_COCHAIN_RULES[rule]
    return tuple((lambda u, x, act=act: tuple(act(L, R, x, u2)[u] for u2 in range(m_dim)))
                 for act in (f, l))


def oracle_loday_boundaries(g, m_dim, first, later, n_max):
    table = dense(g.structure, g.dim, g.dim)

    def bracket(a, b):
        return [(k, c) for k, c in enumerate(table[b][a]) if c]

    words = [list(itertools.product(range(g.dim), repeat=n)) for n in range(n_max + 1)]
    return [oracle_tensor_boundary(words[n], {t: i for i, t in enumerate(words[n - 1])},
                                   bracket, m_dim, first, later)
            for n in range(1, n_max + 1)]


def recorded_boundaries(monkeypatch, build, *args, **kwargs):
    """The boundary matrices a builder hands to _complex, before any gate,
    each read by entries_dict; a cochain complex stores them as they are."""
    seen = []

    def record(dims, boundaries, raising):
        seen.append([entries_dict(m) for m in boundaries])

    monkeypatch.setattr(homology, "_complex", record)
    build(*args, **kwargs)
    monkeypatch.undo()
    assert len(seen) == 1
    return seen[0]


BOUNDARY_ALGEBRAS = dict(CORPUS)
BOUNDARY_ALGEBRAS.update({f"random{s}": random_algebra(random.Random(s)) for s in range(4)})
BOUNDARY_ALGEBRAS["heis3 rescaled"] = rescaled_heis3()


def test_rescaled_algebra_has_denominators():
    g = BOUNDARY_ALGEBRAS["heis3 rescaled"]
    assert any(c.denominator > 1 for row in g.structure.entries for c in row)


@pytest.mark.parametrize("name", list(BOUNDARY_ALGEBRAS))
def test_loday_boundaries_match_oracle_entry_for_entry(name, monkeypatch):
    g = BOUNDARY_ALGEBRAS[name]
    n_max = 4
    for label, coeffs in oracle_coefficient_cases(g):
        m_dim, L, R, two_sided = oracle_tables(g, coeffs)
        _, dual_l, dual_r, _ = oracle_tables(g, oracle_dual(coeffs))
        for rule in (ORACLE_CHAIN_RULES if two_sided else [None]):
            got = recorded_boundaries(monkeypatch, loday_complex, g, coeffs, n_max,
                                      _rep_rule=rule)
            first, later = oracle_chain_actions(L, R, rule or "corrected", two_sided)
            want = oracle_loday_boundaries(g, m_dim, first, later, n_max)
            assert got == want, (label, rule)
            # the coboundaries: the same chain rule on the oracle's dual module
            got = recorded_boundaries(monkeypatch, loday_cochain_complex, g, coeffs, n_max,
                                      _rep_rule=rule)
            first, later = oracle_chain_actions(dual_l, dual_r, rule or "corrected", two_sided)
            want = oracle_loday_boundaries(g, m_dim, first, later, n_max)
            assert got == want, (label, rule)
            if rule in (None, "corrected", "left"):
                # and as the rule of that name acting on the value of a cochain
                first, later = oracle_dual_chain_actions(L, R, rule or "corrected", m_dim,
                                                         two_sided)
                assert got == oracle_loday_boundaries(g, m_dim, first, later, n_max), (label, rule)


def built_boundaries(case):
    """Every matrix the row-writing builders yield for case: for a name of
    BOUNDARY_ALGEBRAS, _product_boundaries under each coefficient kind and
    its dual and as fg_subcomplex(g, 5) calls it; for (d, top), the
    _tensor_boundary of every content block of FreeLeibnizTruncation(d, top)."""
    if isinstance(case, tuple):
        fl = FreeLeibnizTruncation(*case)
        for w in range(1, fl.max_weight + 1):
            for c in itertools.product(range(w + 1), repeat=fl.num_generators):
                if sum(c) == w:
                    for n in range(2, w + 2):
                        yield homology._tensor_boundary(fl.spans.words(n, c),
                                                        fl.spans.index(n - 1, c), fl._left_normed)
        return
    g = BOUNDARY_ALGEBRAS[case]
    yield from homology._product_boundaries(g, 5)
    for _, coeffs in oracle_coefficient_cases(g):
        for c in (coeffs, homology._dual(g, coeffs)):
            yield from homology._product_boundaries(g, 4, *homology._slot_actions(g, c))


@pytest.mark.parametrize("case", [*BOUNDARY_ALGEBRAS, (2, 5), (3, 4)], ids=str)
def test_builders_write_canonical_rows(case):
    # the builders hand their rows to _matrix, which checks nothing; the
    # public constructor sorts, drops zeros and reduces every row again
    matrices = list(built_boundaries(case))
    assert matrices
    for m in matrices:
        assert m == Matrix(m.rows, m.cols, m.sparse_rows)


def test_heis3_d6_matches_oracle_boundary():
    g = CORPUS["heis3"]
    cx = loday_complex(g, trivial_coefficients(), 6)
    assert cx.diffs[5] == Matrix.from_rows(oracle_boundary(dense(g.structure, 3, 3), 6))
