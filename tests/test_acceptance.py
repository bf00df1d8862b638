"""End-to-end guarantees, one test per shipped claim.

Each test prints a single verdict line, so `pytest tests/test_acceptance.py -v -s`
reads as a checklist.  Everything here is exact rational arithmetic; there
are no tolerances to tune.
"""

import json
import random
from fractions import Fraction

import pytest

from leibhom import cli
from leibhom.dgcat import (
    DGModule,
    as_module,
    check_dg_module,
    check_dgla,
    classical_ce,
    classical_ce_cochain,
    cone,
    leib,
    minimal_module,
)
from leibhom.dgla import DGLieAlgebra, minimal_envelope
from leibhom.exactla import Matrix
from leibhom.freealg import free_graded_lie_component, witt_dim
from leibhom.homology import (
    ChainComplex,
    DifferentialSquareNonzero,
    ce_chain,
    ce_cochain,
    ce_projection,
    conjecture_check,
    fg_subcomplex,
    loday_cochain_complex,
    loday_complex,
    trivial_coefficients,
)
from leibhom.leibcore import (
    LeibnizAlgebra,
    Representation,
    adjoint_representation,
    check_leibniz,
    check_representation,
    lie_module_lift,
    lie_quotient,
    tensor3,
    trivial_representation,
)

from conftest import (
    CORPUS,
    LIE_CORPUS,
    character_module,
    entries_dict,
    quotient_adjoint_module,
    random_algebra,
    representations_for,
)
from test_freealg import graded_free_lie_dims
from test_homology_loday import oracle_betti


def _pass(n, detail):
    print(f"criterion {n}: PASS ({detail})")


def _dd_zero(cx):
    for a, b in zip(cx.diffs, cx.diffs[1:]):
        prod = (b @ a) if cx.raising else (a @ b)
        assert prod.is_zero()
    return len(cx.diffs)


def _lie_systems(g):
    qdata = lie_quotient(g)
    out = []
    for maker in (quotient_adjoint_module, character_module):
        mod = maker(qdata)
        if mod is not None:
            out.append(mod)
    return qdata, out


# -- 1 -------------------------------------------------------------------


def test_criterion_1_axiom_suites_and_mutants():
    for name, g in CORPUS.items():
        assert check_leibniz(g) == (), name
        for rname, rep in representations_for(g).items():
            assert check_representation(g, rep) == (), (name, rname)
        env = minimal_envelope(g)
        assert check_dgla(env) == (), name
        assert check_dg_module(as_module(env)) == (), name
        assert check_dg_module(
            minimal_module(g, adjoint_representation(g))) == (), name
    for name, h in LIE_CORPUS.items():
        assert check_dgla(cone(h)) == (), name

    mutants = []

    # bracket tables that violate the (left) derivation identity
    mutants.append(("leibniz: [x,x] = x", lambda: check_leibniz(
        LeibnizAlgebra.from_brackets(["x"], {(0, 0): {0: 1}}))))
    mutants.append(("leibniz: A2 plus [y,y] = x", lambda: check_leibniz(
        LeibnizAlgebra.from_brackets(
            ["x", "y"], {(0, 0): {1: 1}, (1, 1): {0: 1}}))))
    mutants.append(("leibniz: heis3 with active center", lambda: check_leibniz(
        LeibnizAlgebra.from_brackets(
            ["p", "q", "z"],
            {(0, 1): {2: 1}, (1, 0): {2: -1}, (2, 0): {0: 1}}))))
    mutants.append(("leibniz: symmetrized r2", lambda: check_leibniz(
        LeibnizAlgebra.from_brackets(
            ["a", "b"], {(0, 1): {1: 1}, (1, 0): {1: 1}}))))

    # action pairs that violate the module identities
    a2 = CORPUS["A2"]
    one_sided = Representation(
        1, ("m",),
        tensor3(2, 1, 1, {(0, 0, 0): Fraction(1), (1, 0, 0): Fraction(1)}),
        tensor3(1, 2, 1, {}))
    mutants.append(("rep: one-sided character on A2",
                    lambda: check_representation(a2, one_sided)))
    r2 = CORPUS["r2"]
    right_only = Representation(
        1, ("m",),
        tensor3(2, 1, 1, {}),
        tensor3(1, 2, 1, {(0, 0, 0): Fraction(1)}))
    mutants.append(("rep: right-only character on r2",
                    lambda: check_representation(r2, right_only)))
    adj = adjoint_representation(r2)
    flipped = Representation(
        adj.dim, adj.basis_names, adj.left_action,
        tensor3(2, 2, 2, {(1, 0, 1): Fraction(1), (0, 1, 1): Fraction(1)}))
    mutants.append(("rep: adjoint of r2 with broken right action",
                    lambda: check_representation(r2, flipped)))

    # graded mutants
    c = cone(LIE_CORPUS["r2"])
    no_comp = dict(c.brackets)
    del no_comp[(1, 0)]
    mutants.append(("dgla: cone without its (1,0) block", lambda: check_dgla(
        DGLieAlgebra(c.name, c.degree_dims, no_comp, c.differentials,
                     c.labels))))
    scaled = dict(c.differentials)
    scaled[1] = Matrix.from_rows([[1, 0], [0, 2]])
    mutants.append(("dgla: cone with rescaled differential",
                    lambda: check_dgla(DGLieAlgebra(
                        c.name, c.degree_dims, c.brackets, scaled,
                        c.labels))))
    env = minimal_envelope(CORPUS["A2"])
    broken = dict(env.differentials)
    broken[2] = Matrix.from_rows([[1], [0]])
    mutants.append(("dgla: envelope with non-chain d2",
                    lambda: check_dgla(DGLieAlgebra(
                        env.name, env.degree_dims, env.brackets, broken,
                        env.labels))))

    mod = minimal_module(a2, adjoint_representation(a2))
    mdiffs = dict(mod.differentials)
    d0 = mdiffs[0]
    mdiffs[0] = Matrix.from_entries(d0.rows, d0.cols,
                                    {k: 2 * v for k, v in entries_dict(d0).items()})
    mutants.append(("dg module: rescaled differential",
                    lambda: check_dg_module(DGModule(
                        mod.algebra, mod.degree_dims, mod.actions, mdiffs,
                        mod.labels))))
    macts = dict(mod.actions)
    macts[(0, 0)] = tensor3(1, 2, 2, {})
    mutants.append(("dg module: erased degree-(0,0) action",
                    lambda: check_dg_module(DGModule(
                        mod.algebra, mod.degree_dims, macts,
                        mod.differentials, mod.labels))))

    undetected = [label for label, run in mutants if run() == ()]
    assert undetected == [], undetected
    _pass(1, f"axiom suites clean on the corpus, "
             f"{len(mutants)}/{len(mutants)} mutants detected")


# -- 2 -------------------------------------------------------------------


def test_criterion_2_differentials_square_to_zero():
    checked = 0
    pairs = 0
    for g in CORPUS.values():
        qdata, mods = _lie_systems(g)
        systems = [trivial_coefficients(), *mods]
        for coeffs in systems:
            checked += _dd_zero(loday_complex(g, coeffs, 4))
            checked += _dd_zero(loday_cochain_complex(g, coeffs, 4))
            checked += _dd_zero(ce_chain(g, coeffs, 4))
            checked += _dd_zero(ce_cochain(g, coeffs, 4))
            pairs += 1
        for mod in mods:
            checked += _dd_zero(classical_ce(qdata.quotient, mod, 4))
            checked += _dd_zero(classical_ce_cochain(qdata.quotient, mod, 4))
        checked += _dd_zero(classical_ce(qdata.quotient, trivial_coefficients(), 4))
        checked += _dd_zero(fg_subcomplex(g, 4))
        for rep in representations_for(g).values():
            checked += _dd_zero(loday_complex(g, rep, 3))
            checked += _dd_zero(loday_cochain_complex(g, rep, 3))
            pairs += 1
    rng = random.Random(20260816)
    random_pairs = 0
    while random_pairs < 50:
        g = random_algebra(rng)
        checked += _dd_zero(loday_complex(g, trivial_coefficients(), 4))
        checked += _dd_zero(ce_chain(g, trivial_coefficients(), 4))
        checked += _dd_zero(ce_cochain(g, trivial_coefficients(), 4))
        checked += _dd_zero(fg_subcomplex(g, 4))
        rep = adjoint_representation(g)
        checked += _dd_zero(loday_complex(g, rep, 3))
        checked += _dd_zero(loday_cochain_complex(g, rep, 3))
        random_pairs += 2
    _pass(2, f"{pairs} corpus and {random_pairs} randomized "
             f"algebra/coefficient pairs, {checked} exact products")


# -- 3 -------------------------------------------------------------------


def test_criterion_3_small_complex_matches_classical():
    rng = random.Random(2026)
    fleet = [CORPUS["A2"], CORPUS["r2"]]
    while sum(g.dim == 3 for g in fleet) < 3:
        g = random_algebra(rng)
        if g.dim == 3:
            fleet.append(g)
    compared = 0
    for g in fleet:
        qdata, mods = _lie_systems(g)
        small = ce_chain(g, trivial_coefficients(), 4)
        big = classical_ce(qdata.quotient, trivial_coefficients(), 4)
        assert small.betti()[:4] == big.betti()[:4]
        compared += 1
        for mod in mods[:1]:
            small_m = ce_chain(g, mod, 4)
            big_m = classical_ce(qdata.quotient, mod, 4)
            assert small_m.betti()[:4] == big_m.betti()[:4]
            compared += 1
    anchor = ce_chain(CORPUS["A2"], trivial_coefficients(), 4).betti()[:3]
    assert anchor == (1, 1, 0)
    _pass(3, f"{compared} Betti tables agree, A2 anchor (1, 1, 0)")


# -- 4 -------------------------------------------------------------------


def test_criterion_4_tensor_homology_anchors():
    assert oracle_betti(CORPUS["A2"], 2) == (1, 1, 1)
    cx = loday_complex(CORPUS["A2"], trivial_coefficients(), 4)
    assert cx.betti()[:3] == (1, 1, 1)
    for d in (1, 2, 3):
        g = CORPUS[f"abelian{d}"]
        cx = loday_complex(g, trivial_coefficients(), 5)
        assert cx.betti()[:5] == tuple(d ** n for n in range(5))
    for name, g in CORPUS.items():
        hom = loday_complex(g, trivial_coefficients(), 3).betti()[1]
        coh = loday_cochain_complex(g, trivial_coefficients(), 3).betti()[1]
        assert hom == coh, name
    _pass(4, "A2 gives (1, 1, 1) against the dense oracle, abelian powers "
             "and degree-one duality hold")


# -- 5 -------------------------------------------------------------------


def test_criterion_5_action_rule_on_lifts_and_witnesses():
    collapsed = 0
    for name, g in CORPUS.items():
        qdata, mods = _lie_systems(g)
        for mod in mods:
            lift = lie_module_lift(g, mod)
            two = loday_cochain_complex(g, lift, 4)
            one = loday_cochain_complex(g, mod, 4)
            assert two.dims == one.dims, name
            for a, b in zip(two.diffs, one.diffs):
                assert a.entries == b.entries, name
            collapsed += 1
    hemi = CORPUS["hemi2"]
    adj = adjoint_representation(hemi)
    loday_complex(hemi, adj, 4, _rep_rule="corrected")
    loday_cochain_complex(hemi, adj, 4, _rep_rule="corrected")
    a2adj = adjoint_representation(CORPUS["A2"])
    loday_complex(CORPUS["A2"], a2adj, 4, _rep_rule="corrected")
    for bad_rule in ("right", "naive"):
        with pytest.raises(DifferentialSquareNonzero):
            loday_complex(hemi, adj, 4, _rep_rule=bad_rule)
    with pytest.raises(DifferentialSquareNonzero):
        loday_cochain_complex(hemi, adj, 4, _rep_rule="naive")
    _pass(5, f"{collapsed} lifted systems collapse to the one-sided "
             "differentials, uncorrected rules fail on the one-sided witness")


# -- 6 -------------------------------------------------------------------


def test_criterion_6_projection_comparison():
    verdicts = 0
    for name, g in CORPUS.items():
        qdata, mods = _lie_systems(g)
        systems = [trivial_coefficients(), *mods]
        for coeffs in systems:
            _, _, rep = ce_projection(g, coeffs, 3)
            assert rep.h0_iso, name
            assert rep.h1_iso, name
            assert rep.hl2_to_h2_surjective, name
            assert rep.h2_to_hl2_injective, name
            verdicts += 4
    _pass(6, f"chain maps verified, {verdicts} induced-map verdicts hold")


# -- 7 -------------------------------------------------------------------


def test_criterion_7_free_vanishing():
    for d, w in ((1, 6), (2, 5)):
        rep = conjecture_check(d, w)
        assert rep.verdict == "PASS", (d, w)
        for v in rep.weights:
            assert v.h1 == witt_dim(d, v.weight)
            assert all(h == 0 for h in v.higher)
    _pass(7, "one generator to weight 6 and two to weight 5: top homology "
             "is necklace-counted, the rest vanishes")


# -- 8 -------------------------------------------------------------------


def test_criterion_8_graded_component_dimensions():
    got2 = tuple(free_graded_lie_component(2, n).dim for n in (1, 2, 3, 4))
    assert got2 == (2, 3, 2, 3)
    got1 = tuple(free_graded_lie_component(1, n).dim for n in (1, 2, 3))
    assert got1 == (1, 1, 0)
    for d, n_max in ((2, 5), (3, 4)):
        series = graded_free_lie_dims(d, n_max)
        built = [free_graded_lie_component(d, n).dim
                 for n in range(1, n_max + 1)]
        assert built == series, d
    _pass(8, "two letters give (2, 3, 2, 3), one letter (1, 1, 0), all "
             "matching the generating-function count")


# -- 9 -------------------------------------------------------------------


def test_criterion_9_functor_round_trips():
    for name, h in LIE_CORPUS.items():
        back, rep = leib(cone(h))
        assert rep.member and back.structure == h.structure, name
    for name, g in CORPUS.items():
        env = minimal_envelope(g)
        back, rep = leib(env)
        assert rep.member and back.structure == g.structure, name
        # the envelope stops at degree 2: store the zero degree 3 above it
        dims = (env.dim(0), env.dim(1), env.dim(2), 0)
        d1, d2, d3 = env.differential(1), env.differential(2), Matrix.zeros(env.dim(2), 0)
        assert ChainComplex(0, dims, (d1, d2, d3)).betti() == (0, 0, 0), name
        for rname, rep_ in representations_for(g).items():
            assert check_dg_module(minimal_module(g, rep_)) == (), (name, rname)
    _pass(9, "cone and envelope round-trip as structure constants, "
             "envelopes are acyclic, induced modules check out")


# -- 10 ------------------------------------------------------------------


def test_criterion_10_cli_contract(tmp_path, monkeypatch):
    a2 = tmp_path / "a2.json"
    a2.write_text(json.dumps({
        "convention": "left", "basis": ["x", "y"],
        "brackets": [{"left": "x", "right": "x", "value": {"y": "1"}}]}))

    # round trip through the echo block
    r1 = tmp_path / "r1.json"
    assert cli.entrypoint(["check", str(a2), "--json", str(r1),
                           "--quiet"]) == 0
    echo = json.loads(r1.read_text())["algebra_echo"]
    echoed = tmp_path / "echo.json"
    echoed.write_text(json.dumps(echo))
    r2 = tmp_path / "r2.json"
    assert cli.entrypoint(["check", str(echoed), "--json", str(r2),
                           "--quiet"]) == 0
    assert json.loads(r2.read_text())["algebra_echo"] == echo

    # determinism
    r3 = tmp_path / "r3.json"
    assert cli.entrypoint(["homology", str(a2), "--json", str(r3),
                           "--quiet"]) == 0
    r4 = tmp_path / "r4.json"
    assert cli.entrypoint(["homology", str(a2), "--json", str(r4),
                           "--quiet"]) == 0
    d3, d4 = json.loads(r3.read_text()), json.loads(r4.read_text())
    d3.pop("timing"), d4.pop("timing")
    assert d3 == d4

    # exit codes: 0 fine, 2 user error, 1 internal invariant failure
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "convention": "left", "basis": ["x"],
        "brackets": [{"left": "x", "right": "x", "value": {"x": "1"}}]}))
    assert cli.entrypoint(["check", str(bad), "--quiet"]) == 2
    assert cli.entrypoint(["free-conjecture", "--generators", "2",
                           "--max-weight", "9", "--quiet"]) == 2

    def forced(args, report):
        raise DifferentialSquareNonzero("forced")
    monkeypatch.setitem(cli.HANDLERS, "quotient", forced)
    assert cli.entrypoint(["quotient", str(a2), "--quiet"]) == 1

    # the free-algebra table end to end, at the full two-generator budget
    r5 = tmp_path / "r5.json"
    assert cli.entrypoint(["free-conjecture", "--generators", "2",
                           "--json", str(r5), "--quiet"]) == 0
    report = json.loads(r5.read_text())
    rows = report["tables"]["weights"]
    want = conjecture_check(2)
    assert [r["h1"] for r in rows] == [v.h1 for v in want.weights]
    assert [r["higher"] for r in rows] == [list(v.higher) for v in want.weights]
    assert report["verdicts"]["verdict"] == "PASS"
    _pass(10, "round trip, determinism, exit codes 0/1/2, and the "
              "free-algebra table all verified end to end")
