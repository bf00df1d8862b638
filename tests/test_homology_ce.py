import itertools
import random
from fractions import Fraction

import pytest

from leibhom import homology
from leibhom.dgcat import classical_ce, classical_ce_cochain
from leibhom.dgla import minimal_envelope
from leibhom.exactla import Matrix, _kron, _lincomb
from leibhom.homology import (
    ChainComplex,
    NotAChainMap,
    ce_chain,
    ce_cochain,
    ce_projection,
    loday_cochain_complex,
    loday_complex,
    trivial_coefficients,
)
from leibhom.leibcore import (
    LeibnizAlgebra,
    LieAlgebra,
    LieModule,
    adjoint_representation,
    lie_quotient,
)

from conftest import (
    CORPUS,
    LIE_CORPUS,
    SL2_BRACKETS,
    FractionPBW,
    character_module,
    conjugate,
    entries_dict,
    fraction_ce_boundaries,
    make_corpus,
    quotient_adjoint_module,
    representations_for,
    rescale,
    rescaled_heis3,
    unimodular,
)


def test_a2_small_complex_dims_and_betti():
    cx = ce_chain(CORPUS["A2"], trivial_coefficients(), 4)
    assert cx.dims == (1, 2, 2, 2, 2)
    assert cx.betti()[:4] == (1, 1, 0, 0)


def test_a2_small_complex_frozen_differentials():
    cx = ce_chain(CORPUS["A2"], trivial_coefficients(), 4)
    d1, d2, d3, d4 = cx.diffs
    assert d1.is_zero()
    # degree-2 basis [xy, y^]: only the hat generator maps down, to y
    assert entries_dict(d2) == {(1, 1): Fraction(1)}
    # degree-3 basis [x y^, y y^]: x y^ -> -xy
    assert entries_dict(d3) == {(0, 0): Fraction(-1)}
    # degree-4 basis [x y y^, y^ y^]: the doubled hat maps to 2 y y^
    assert entries_dict(d4) == {(1, 1): Fraction(2)}


def test_a2_small_cochain_betti():
    cx = ce_cochain(CORPUS["A2"], trivial_coefficients(), 4)
    assert cx.betti()[:4] == (1, 1, 0, 0)


def test_small_complex_equals_classical_for_lie_input():
    for name, h in LIE_CORPUS.items():
        g = LeibnizAlgebra(h.dim, h.basis_names, h.structure)
        small = ce_chain(g, trivial_coefficients(), 4)
        classical = classical_ce(h, trivial_coefficients(), 4)
        assert small.dims == classical.dims, name
        for a, b in zip(small.diffs, classical.diffs):
            assert a.entries == b.entries, name
        smallco = ce_cochain(g, trivial_coefficients(), 4)
        classicalco = classical_ce_cochain(h, trivial_coefficients(), 4)
        assert smallco.dims == classicalco.dims, name
        for a, b in zip(smallco.diffs, classicalco.diffs):
            assert a.entries == b.entries, name


def test_small_complex_betti_equals_classical_of_quotient():
    rng = random.Random(11)
    cases = [CORPUS["A2"], CORPUS["r2"]]
    for _ in range(3):
        base = rng.choice([CORPUS["abelian3"], CORPUS["heis3"], CORPUS["A2+k"]])
        p, pinv = unimodular(rng, base.dim)
        cases.append(conjugate(base, p, pinv))
    for g in cases:
        qdata = lie_quotient(g)
        small = ce_chain(g, trivial_coefficients(), 4)
        classical = classical_ce(qdata.quotient, trivial_coefficients(), 4)
        assert small.betti()[:4] == classical.betti()[:4]
        mod = quotient_adjoint_module(qdata) or character_module(qdata)
        if mod is None:
            continue
        small_m = ce_chain(g, mod, 4)
        classical_m = classical_ce(qdata.quotient, mod, 4)
        assert small_m.betti()[:4] == classical_m.betti()[:4]


def test_enveloping_builders_reject_two_sided_coefficients():
    g = CORPUS["A2"]
    coeffs = adjoint_representation(g)
    with pytest.raises(ValueError):
        ce_chain(g, coeffs, 3)
    with pytest.raises(ValueError):
        ce_cochain(g, coeffs, 3)


def test_classical_heisenberg_betti():
    h = LIE_CORPUS["heis3"]
    cx = classical_ce(h, trivial_coefficients(), 4)
    assert cx.betti() == (1, 2, 2, 1)


def test_projection_report_for_a2():
    _, _, rep = ce_projection(CORPUS["A2"], trivial_coefficients(), 3)
    assert rep.degrees == (0, 1, 2)
    assert rep.loday_homology == (1, 1, 1)
    assert rep.ce_homology == (1, 1, 0)
    assert rep.loday_cohomology == (1, 1, 1)
    assert rep.ce_cohomology == (1, 1, 0)
    assert rep.chain_map_ranks == (1, 1, 0)
    assert rep.cochain_map_ranks == (1, 1, 0)
    assert rep.h0_iso and rep.h1_iso
    assert rep.hl2_to_h2_surjective and rep.h2_to_hl2_injective


def test_projection_verdicts_across_corpus():
    for name, g in CORPUS.items():
        qdata = lie_quotient(g)
        systems = [trivial_coefficients()]
        mod = quotient_adjoint_module(qdata)
        if mod is not None:
            systems.append(mod)
        ch = character_module(qdata)
        if ch is not None:
            systems.append(ch)
        for coeffs in systems:
            _, _, rep = ce_projection(g, coeffs, 3)
            assert rep.h0_iso, (name, coeffs)
            assert rep.h1_iso, (name, coeffs)
            assert rep.hl2_to_h2_surjective, (name, coeffs)
            assert rep.h2_to_hl2_injective, (name, coeffs)


def test_projection_shallow_run_leaves_degree_two_verdicts_open():
    _, _, rep = ce_projection(CORPUS["A2"], trivial_coefficients(), 2)
    assert rep.h0_iso is not None and rep.h1_iso is not None
    assert rep.hl2_to_h2_surjective is None
    assert rep.h2_to_hl2_injective is None


def test_projection_builds_the_envelope_once(monkeypatch):
    g = CORPUS["heis3"]
    coeffs = quotient_adjoint_module(lie_quotient(g))
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return minimal_envelope(*args, **kwargs)

    monkeypatch.setattr("leibhom.homology.minimal_envelope", counting)
    for _ in range(2):
        ce_projection(g, coeffs, 3)
    assert len(calls) == 2


def test_projection_builds_the_lie_quotient_once(monkeypatch):
    # a fresh algebra: the shared corpus object may hold its quotient already
    g = make_corpus()["heis3"]
    coeffs = quotient_adjoint_module(lie_quotient(g))
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return lie_quotient(*args, **kwargs)

    monkeypatch.setattr("leibhom.leibcore.lie_quotient", counting)
    for _ in range(2):
        ce_projection(g, coeffs, 3)
    assert len(calls) == 1


def test_trivial_coefficients_never_build_the_lie_quotient(monkeypatch):
    g = make_corpus()["heis3"]
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return lie_quotient(*args, **kwargs)

    monkeypatch.setattr("leibhom.leibcore.lie_quotient", counting)
    loday_complex(g, trivial_coefficients(), 3)
    loday_cochain_complex(g, trivial_coefficients(), 3)
    classical_ce(g, trivial_coefficients(), 3)
    assert calls == []


def test_projection_derives_each_monomial_once(monkeypatch):
    # the chain and cochain complexes share the boundary terms of every
    # normal monomial; A2 has 9 of them in degrees 0..4
    calls = []

    def counting(images, word):
        calls.append(word)
        return derive(images, word)

    derive = homology._derive_word
    monkeypatch.setattr(homology, "_derive_word", counting)
    ce_projection(CORPUS["A2"], trivial_coefficients(), 4)
    assert len(calls) == len(set(calls)) <= 9


# sl2 has an exact answer at every degree: HL_n(sl2, k) = 0 for n >= 1
# (Ntolo; Pirashvili, Ann. Inst. Fourier 44, 1994) and classical homology
# (1, 0, 0, 1).  It stays out of corpus.CORPUS, whose every algebra the
# pinned result digests hash.
def test_sl2_known_answers_with_trivial_coefficients():
    g = LeibnizAlgebra.from_brackets(["e", "f", "h"], SL2_BRACKETS)
    h = LieAlgebra.from_brackets(["e", "f", "h"], SL2_BRACKETS)
    for build in (loday_complex, loday_cochain_complex):
        assert build(g, trivial_coefficients(), 6).betti() == (1, 0, 0, 0, 0, 0)
    for build in (classical_ce, classical_ce_cochain):
        assert build(h, trivial_coefficients(), 4).betti() == (1, 0, 0, 1)
    _, _, rep = ce_projection(g, trivial_coefficients(), 4)
    assert rep.ce_homology == rep.ce_cohomology == (1, 0, 0, 1)
    assert rep.loday_homology == rep.loday_cohomology == (1, 0, 0, 0)
    # H_3 of the small complex is nonzero, and the induced maps are zero there
    assert rep.chain_map_ranks == rep.cochain_map_ranks == (1, 0, 0, 0)
    assert rep.h0_iso and rep.h1_iso
    assert rep.hl2_to_h2_surjective and rep.h2_to_hl2_injective


def test_sl2_known_answers_with_adjoint_coefficients():
    g = LeibnizAlgebra.from_brackets(["e", "f", "h"], SL2_BRACKETS)
    h = LieAlgebra.from_brackets(["e", "f", "h"], SL2_BRACKETS)
    coeffs = quotient_adjoint_module(g.quotient_data)
    for build in (loday_complex, loday_cochain_complex):
        assert build(g, coeffs, 6).betti() == (0,) * 6
    for build in (classical_ce, classical_ce_cochain):
        assert build(h, LieModule(3, h.structure), 4).betti() == (0,) * 4
    _, _, rep = ce_projection(g, coeffs, 4)
    assert rep.loday_homology == rep.ce_homology == (0,) * 4
    assert rep.loday_cohomology == rep.ce_cohomology == (0,) * 4
    assert rep.chain_map_ranks == rep.cochain_map_ranks == (0,) * 4
    assert rep.h0_iso and rep.h1_iso
    assert rep.hl2_to_h2_surjective and rep.h2_to_hl2_injective


# ---------------------------------------------------------------------------
# the projection by the last-letter recursion, and the cochain half as the
# chain half of the dual module


def per_word_projection_blocks(data):
    """p_n by normalizing each of the d^n words of g^{(x)n} on its own with
    the Fraction rewriter: the projection as ce_projection built it before
    the last-letter recursion and the integer normal forms, kept as its
    oracle."""
    base, pbw = data.g.dim, FractionPBW(data.pbw.algebra)
    out = []
    for n, ws in enumerate(data.mons):
        index = {w: i for i, w in enumerate(ws)}
        entries = {}
        for widx, word in enumerate(itertools.product(range(base), repeat=n)):
            poly = {tuple((1, i) for i in word): Fraction(1)}
            for w2, c in pbw.normal_form(poly).items():
                key = (index[w2], widx)
                entries[key] = entries.get(key, 0) + c
        out.append(Matrix.from_entries(len(ws), base ** n, entries))
    return out


def zero_module(g, m):
    """The m-dim module on which the maximal Lie quotient of g acts by 0."""
    return LieModule(m, Matrix.zeros(m, g.quotient_data.quotient.dim * m))


# the corpus, sl2, and algebras with denominators: a Lie quotient with the
# constant 2/3 (heis3 rescaled), one whose columns have different
# denominators (sl2 rescaled), and an odd square with 1/12 (A2 rescaled)
SL2 = LeibnizAlgebra.from_brackets(["e", "f", "h"], SL2_BRACKETS)
ORACLE_ALGEBRAS = dict(CORPUS, sl2=SL2, **{
    "heis3 rescaled": rescaled_heis3(),
    "sl2 rescaled": rescale(SL2, (2, Fraction(1, 3), 5)),
    "A2 rescaled": rescale(CORPUS["A2"], (Fraction(1, 2), 3)),
    "A2+k rescaled": rescale(CORPUS["A2+k"], (3, Fraction(1, 2), 5))})


@pytest.mark.parametrize("name", list(ORACLE_ALGEBRAS))
def test_integer_ce_boundaries_match_the_fraction_oracle(name):
    g = ORACLE_ALGEBRAS[name]
    coefficient_systems = [trivial_coefficients(), trivial_coefficients(2),
                           quotient_adjoint_module(g.quotient_data),
                           character_module(g.quotient_data)]
    for coeffs in filter(None, coefficient_systems):
        for build, module in ((ce_chain, coeffs), (ce_cochain, homology._dual(g, coeffs))):
            m_dim, action = homology._lie_action(g, module)
            want = fraction_ce_boundaries(g, action, m_dim, 4)
            assert list(build(g, coeffs, 4).boundaries) == want, (name, build.__name__)


def test_block_transpose_matches_the_dense_oracle():
    for g in ORACLE_ALGEBRAS.values():
        for rep in representations_for(g).values():
            m, n = rep.dim, g.dim
            t = rep.left_action
            cols = t.transpose().entries
            for sign in (1, -1):
                got = homology._block_transpose(t, m, sign).transpose().entries
                for a in range(n):
                    for u in range(m):
                        assert got[a * m + u] == tuple(sign * cols[a * m + u2][u]
                                                       for u2 in range(m))


def test_recursive_projection_matches_per_word_normal_forms():
    for name, g in ORACLE_ALGEBRAS.items():
        data = homology._ce_setup(g, trivial_coefficients(), 5)
        got = homology._projection_blocks(data)
        want = per_word_projection_blocks(data)
        # Matrix equality compares the shapes and the canonical int_rows
        assert got == want, name
    # a nonzero action projects through the same blocks, one per module basis vector
    for g in (CORPUS["heis3"], ORACLE_ALGEBRAS["sl2"], ORACLE_ALGEBRAS["heis3 rescaled"]):
        coeffs = quotient_adjoint_module(g.quotient_data)
        P, _, _ = ce_projection(g, coeffs, 4)
        want = per_word_projection_blocks(homology._ce_setup(g, coeffs, 4))
        assert list(P) == [_kron(Matrix.identity(coeffs.dim), b) for b in want]


def test_zero_lie_module_builds_the_trivial_complexes(monkeypatch):
    def no_lift(*args):
        raise AssertionError("a zero action needs no lift")

    monkeypatch.setattr(homology, "_actions", no_lift)
    for name, g in CORPUS.items():
        for m in (1, 2):
            zero, trivial = zero_module(g, m), trivial_coefficients(m)
            for build in (loday_complex, loday_cochain_complex, ce_chain, ce_cochain):
                assert build(g, zero, 3).diffs == build(g, trivial, 3).diffs, (name, m, build)
    for name, h in LIE_CORPUS.items():
        zero = LieModule(2, Matrix.zeros(2, 2 * h.dim))
        for build in (classical_ce, classical_ce_cochain):
            assert build(h, zero, 3).diffs == build(h, trivial_coefficients(2), 3).diffs, name
    g = CORPUS["heis3"]
    missized = LieModule(1, Matrix.zeros(1, 2))
    for build in (loday_complex, loday_cochain_complex, ce_chain, ce_cochain, ce_projection):
        with pytest.raises(ValueError, match="action table"):
            build(g, missized, 2)


def compare_cases():
    """(label, g, coefficients) for the compare differential tests: trivial
    and zero-action coefficients over the corpus, and the nonzero adjoint
    Lie modules of heis3 and sl2."""
    for name, g in CORPUS.items():
        for coeffs in (trivial_coefficients(1), trivial_coefficients(2),
                       zero_module(g, g.quotient_data.quotient.dim)):
            yield name, g, coeffs
    sl2 = LeibnizAlgebra.from_brackets(["e", "f", "h"], SL2_BRACKETS)
    for name, g in (("heis3", CORPUS["heis3"]), ("sl2", sl2)):
        yield f"{name} adjoint", g, quotient_adjoint_module(g.quotient_data)


def test_projection_cochain_half_matches_the_public_cochain_complexes():
    for label, g, coeffs in compare_cases():
        n_max = 4
        _, Q, rep = ce_projection(g, coeffs, n_max)
        lodco, ceco = loday_cochain_complex(g, coeffs, n_max), ce_cochain(g, coeffs, n_max)
        assert rep.loday_cohomology == lodco.betti(), (label, coeffs)
        assert rep.ce_cohomology == ceco.betti(), (label, coeffs)
        # Q is a cochain map on the raising complexes, and its induced ranks
        # are the ones ce_projection reads off the chain half of the dual
        for n in range(n_max):
            assert lodco.diffs[n] @ Q[n] == Q[n + 1] @ ceco.diffs[n], (label, coeffs, n)
        assert rep.cochain_map_ranks == tuple(
            homology._induced_rank(ceco, lodco, Q[k], k) for k in rep.degrees), (label, coeffs)


def test_cochain_complexes_store_boundaries_and_transpose_on_read():
    def cochain_complexes():
        for name, g in CORPUS.items():
            qdata = lie_quotient(g)
            lie = quotient_adjoint_module(qdata) or character_module(qdata)
            for coeffs in (trivial_coefficients(), lie, adjoint_representation(g)):
                if coeffs is not None:
                    yield name, loday_cochain_complex(g, coeffs, 3)
            for coeffs in (trivial_coefficients(), lie):
                if coeffs is not None:
                    yield name, ce_cochain(g, coeffs, 3)
        for name, h in LIE_CORPUS.items():
            for coeffs in (trivial_coefficients(), LieModule(h.dim, h.structure)):
                yield name, classical_ce_cochain(h, coeffs, 3)

    for name, cx in cochain_complexes():
        assert cx.raising, name
        cx.betti()
        # the ranks read the stored boundaries; the coboundaries wait
        assert "diffs" not in vars(cx), name
        assert cx.diffs == tuple(d.transpose() for d in cx.boundaries), name


def test_projection_runs_the_chain_half_on_the_dual_only_for_a_nonzero_action(monkeypatch):
    calls = []
    loday = homology._loday

    def counting(g, coeffs, n_max, raising, rule=None):
        calls.append((coeffs, raising))
        return loday(g, coeffs, n_max, raising, rule)

    monkeypatch.setattr(homology, "_loday", counting)
    g = CORPUS["heis3"]
    for coeffs in (trivial_coefficients(), zero_module(g, 3)):
        calls.clear()
        ce_projection(g, coeffs, 3)
        assert calls == [(coeffs, False)], coeffs
    adjoint = quotient_adjoint_module(g.quotient_data)
    calls.clear()
    ce_projection(g, adjoint, 3)
    assert [raising for _, raising in calls] == [False, False]
    assert calls[0][0] is adjoint
    dual = calls[1][0]
    assert dual.action == homology._dual(g, adjoint).action != adjoint.action


def test_projection_raises_on_a_failed_chain_identity(monkeypatch):
    g = CORPUS["heis3"]
    adjoint = quotient_adjoint_module(g.quotient_data)
    blocks, loday = homology._projection_blocks, homology._loday
    with monkeypatch.context() as patch:
        patch.setattr(homology, "_projection_blocks",
                      lambda data: [_lincomb((2, b)) if n == 2 else b
                                    for n, b in enumerate(blocks(data))])
        for coeffs in (trivial_coefficients(), adjoint):
            with pytest.raises(NotAChainMap, match="projection fails"):
                ce_projection(g, coeffs, 3)

    def negated_on_the_dual(g, coeffs, n_max, raising, rule=None):
        cx = loday(g, coeffs, n_max, raising, rule)
        if coeffs is adjoint:
            return cx
        return ChainComplex(cx.offset, cx.dims, tuple(_lincomb((-1, d)) for d in cx.diffs))

    # the chain half of m holds, so the identity on m* is checked on its own
    monkeypatch.setattr(homology, "_loday", negated_on_the_dual)
    with pytest.raises(NotAChainMap, match="projection fails"):
        ce_projection(g, adjoint, 3)
