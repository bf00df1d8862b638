"""The sparse basis: the greedy search itself, on an algebra and on the
basis of a module, the one exact gate, and the basis-invariant numbers of
every builder the CLI runs on them, with the search on and off."""

import hashlib
import importlib.util
import random
from pathlib import Path

import pytest

from leibhom import cli, leibcore
from leibhom.exactla import Matrix, _kron
from leibhom.homology import (
    ce_chain,
    ce_cochain,
    ce_projection,
    fg_subcomplex,
    loday_cochain_complex,
    loday_complex,
    trivial_coefficients,
)
from leibhom.leibcore import (
    LeibnizAlgebra,
    LieModule,
    Representation,
    _descent,
    _semidirect,
    adjoint_lie_module,
    adjoint_representation,
    check_leibniz,
    check_lie_module,
    check_representation,
    is_isomorphism,
    sparse_basis,
    trivial_representation,
)

from conftest import (
    CORPUS,
    SL2_BRACKETS,
    bilinear,
    character_module,
    conjugate,
    dense,
    representations_for,
    rescaled_heis3,
    unimodular,
)


def _bench_gen():
    """benchmark/gen.py, for its canonical algebras and its dense_basis."""
    path = Path(__file__).resolve().parents[1] / "benchmark" / "gen.py"
    spec = importlib.util.spec_from_file_location("_bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


GEN = _bench_gen()

SL2 = LeibnizAlgebra.from_brackets(["e", "f", "h"], SL2_BRACKETS)

CANONICAL = dict(CORPUS, sl2=SL2, **{
    f"bench-{name}": LeibnizAlgebra.from_brackets(spec["basis"], spec["brackets"])
    for name, spec in GEN.ALGEBRAS.items()})


def nonzeros(*tables: Matrix) -> int:
    return sum(len(row) for t in tables for _, row in t.int_rows)


def nnz(g: LeibnizAlgebra) -> int:
    return nonzeros(g.structure)


def descent(g: LeibnizAlgebra):
    """The moves of sparse_basis(g)."""
    return _descent(*_semidirect(g.structure), g.dim)


def lie_modules_for(g: LeibnizAlgebra) -> dict[str, LieModule]:
    """Modules over the Lie quotient of g: its adjoint module, when the
    quotient is not 0, and a 2-dim one with zero action."""
    q = g.quotient_data.quotient
    out = {"zero": LieModule(2, Matrix.zeros(2, 2 * q.dim))}
    if q.dim:
        out["adjoint"] = adjoint_lie_module(q)
    return out


def quotient_map(g: LeibnizAlgebra, h: LeibnizAlgebra, s: Matrix) -> Matrix:
    """pi_g S sigma_h, the isomorphism of the Lie quotients that s induces."""
    return g.quotient_data.projection @ s @ h.quotient_data.section


def in_dense_basis(g: LeibnizAlgebra) -> LeibnizAlgebra:
    p = GEN.dense_basis(g.dim)
    return conjugate(g, p, GEN._inverse(p))


# the corpus, seeded unimodular conjugates of it, an algebra with
# denominators, and the dense forms the benchmark and the ladder use
CASES = dict(CORPUS, **{
    f"{name} conjugate{seed}": conjugate(g, *unimodular(random.Random(seed), g.dim))
    for name, g in CORPUS.items() for seed in (1, 2)})
CASES["heis3 rescaled"] = rescaled_heis3()
CASES.update({f"{name} dense": in_dense_basis(CANONICAL[name])
              for name in ("bench-heis3", "bench-a2k", "bench-fil4", "bench-hemi2", "sl2")})


# h, S, m' and T of sparse_basis as the search gave them when it kept B
# and the scale as Fractions, hashed (sha256 of their repr, first 16 hex
# digits) per algebra over no module, representations_for and
# lie_modules_for: the corpus, heis3 with denominators, and the six seed-1
# unimodular bases of each benchmark algebra
PINNED_RESULTS = {
    "abelian1": "a8d1c5cf257648b7",
    "abelian2": "8786c6323d71f004",
    "abelian3": "ba6ebbd604dbd3f2",
    "A2": "8ea0ee81dd99b876",
    "r2": "634cad9b0f37a611",
    "heis3": "69df10df8848c6fa",
    "hemi2": "a789337226dc2e58",
    "A2+k": "27bd6091fa9eddef",
    "heis3 rescaled": "43e208b0fd02e36d",
    "heis3 v0": "99c74e65d6ce0133",
    "heis3 v1": "7dda3dd42e61e9e5",
    "heis3 v2": "2b15cef72a734594",
    "heis3 v3": "457fa3b419c561f8",
    "heis3 v4": "1dc7c70adeaa22fe",
    "heis3 v5": "3c674a73605e6f97",
    "a2k v0": "516172702f4c76f9",
    "a2k v1": "bfb8ccda7645e995",
    "a2k v2": "c4a73c99f00e9b4c",
    "a2k v3": "3b1cf53da6867e8a",
    "a2k v4": "119d7e265226641b",
    "a2k v5": "54c24cce76cfcbab",
    "fil4 v0": "3aecdd1a76af6f3b",
    "fil4 v1": "aedbc740b658e5ae",
    "fil4 v2": "e3302e424a48ed64",
    "fil4 v3": "584b94513936823a",
    "fil4 v4": "2a2d52fe8831bcf5",
    "fil4 v5": "cb33c3923a2b13d1",
    "hemi2 v0": "331ff3d3bdaee345",
    "hemi2 v1": "48bb9f0aa6e05695",
    "hemi2 v2": "331ff3d3bdaee345",
    "hemi2 v3": "48bb9f0aa6e05695",
    "hemi2 v4": "331ff3d3bdaee345",
    "hemi2 v5": "48bb9f0aa6e05695",
}


def pinned_algebras() -> dict[str, LeibnizAlgebra]:
    out = dict(CORPUS, **{"heis3 rescaled": rescaled_heis3()})
    for name in GEN.ALGEBRAS:
        g = CANONICAL[f"bench-{name}"]
        for v, p in enumerate(GEN.unimodular_bases(random.Random(1), g.dim, 6)):
            out[f"{name} v{v}"] = conjugate(g, p, GEN._inverse(p))
    return out


def test_sparse_basis_gives_the_pinned_results():
    got = {}
    for name, g in pinned_algebras().items():
        modules = [None, *representations_for(g).values(), *lie_modules_for(g).values()]
        text = repr([sparse_basis(g, m) for m in modules])
        got[name] = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert got == PINNED_RESULTS


@pytest.mark.parametrize("name", list(CASES))
def test_sparse_basis_is_an_isomorphism(name):
    g = CASES[name]
    h, s, none, no_t = sparse_basis(g)
    assert none is None and no_t is None
    assert is_isomorphism(s, h, g)
    assert not check_leibniz(h)
    # S [e_i, e_j]_h = [S e_i, S e_j]_g entry by entry, on dense tensors
    cols = s.transpose().entries
    th, tg = dense(h.structure, g.dim, g.dim), dense(g.structure, g.dim, g.dim)
    for i in range(g.dim):
        for j in range(g.dim):
            assert s.apply(th[i][j]) == bilinear(tg, cols[i], cols[j])
    hq = h.quotient_data.quotient
    modules = dict(representations_for(g), **{f"lie-{k}": m for k, m in lie_modules_for(g).items()})
    for mname, m in modules.items():
        h_m, s_m, moved, t = sparse_basis(g, m)
        # the module's search does not change the algebra's
        assert (h_m.structure, s_m) == (h.structure, s), mname
        assert is_isomorphism(s, h_m, g, t, moved, m), mname
        if isinstance(m, LieModule):
            assert not check_lie_module(hq, moved), mname
        else:
            assert not check_representation(h, moved), mname


@pytest.mark.parametrize("name", list(CASES))
def test_descent_lowers_the_count_at_every_move_within_the_budget(name):
    g = CASES[name]
    counts = [nnz(g)] + [len(cells) for *_, cells, _ in descent(g)]
    assert len(counts) - 1 <= leibcore.SPARSE_STEPS
    assert all(a > b for a, b in zip(counts, counts[1:]))
    assert nnz(sparse_basis(g)[0]) == counts[-1]


def test_descent_stops_at_the_step_budget(monkeypatch):
    g = CASES["bench-a2k dense"]
    assert len(list(descent(g))) == 2
    monkeypatch.setattr(leibcore, "SPARSE_STEPS", 1)
    [(_, _, _, cells, _)] = descent(g)
    h, s, _, _ = sparse_basis(g)
    assert nnz(h) == len(cells) < nnz(g)
    assert is_isomorphism(s, h, g)


# dense a2k and hemi2 end at the rank of their bracket table, 1, which no
# move can go below, so no scan follows their last move
@pytest.mark.parametrize("name", ["bench-a2k dense", "bench-hemi2 dense"])
def test_descent_stops_scanning_at_the_rank_bound(name, monkeypatch):
    scans = []
    best_move = leibcore._best_move
    monkeypatch.setattr(leibcore, "_best_move", lambda *a: scans.append(a) or best_move(*a))
    moves = list(descent(CASES[name]))
    assert len(moves[-1][3]) == 1
    assert len(scans) == len(moves)


@pytest.mark.parametrize("name", list(CANONICAL))
def test_a_canonical_basis_comes_back_unchanged(name):
    g = CANONICAL[name]
    assert list(descent(g)) == []
    h, s, _, _ = sparse_basis(g)
    assert h is g
    assert s == Matrix.identity(g.dim)
    # and a module no move sparsens comes back as it is, with the identity
    m = trivial_representation(g, 2)
    assert sparse_basis(g, m)[1:] == (s, m, Matrix.identity(2))
    assert sparse_basis(g, m)[2] is m


# the counts of the canonical bases; hemi2 reaches its count of 1 too
@pytest.mark.parametrize("name, count", [
    ("bench-heis3", 2), ("bench-a2k", 1), ("bench-fil4", 3), ("bench-hemi2", 1), ("sl2", 6)])
def test_dense_forms_reach_the_canonical_count(name, count):
    g = CASES[f"{name} dense"]
    assert nnz(CANONICAL[name]) == count < nnz(g)
    assert nnz(sparse_basis(g)[0]) == count


def test_transport_reads_the_actions_on_the_new_bases():
    # T L' = L (S (x) T): [S e_i, T f_u] in the basis T f_v, and so on
    g = CASES["heis3 conjugate1"]
    m = representations_for(g)["adjoint"]
    h, s, moved, t = sparse_basis(g, m)
    assert t != Matrix.identity(m.dim)
    cols, tcols = s.transpose().entries, t.transpose().entries
    left, right = dense(m.left_action, g.dim, m.dim), dense(m.right_action, m.dim, g.dim)
    new_left = dense(moved.left_action, g.dim, m.dim)
    new_right = dense(moved.right_action, m.dim, g.dim)
    for i in range(g.dim):
        for u in range(m.dim):
            assert t.apply(new_left[i][u]) == bilinear(left, cols[i], tcols[u])
            assert t.apply(new_right[u][i]) == bilinear(right, tcols[u], cols[i])
    # and T A' = A (S~ (x) T) on the adjoint module of the Lie quotient,
    # S~ the isomorphism of the quotients that S induces
    mod = adjoint_lie_module(g.quotient_data.quotient)
    h, s, moved, t = sparse_basis(g, mod)
    sbar, r = quotient_map(g, h, s), g.quotient_data.quotient.dim
    assert t != Matrix.identity(r)
    cols, tcols = sbar.transpose().entries, t.transpose().entries
    action, new_action = dense(mod.action, r, r), dense(moved.action, r, r)
    for a in range(r):
        for u in range(r):
            assert t.apply(new_action[a][u]) == bilinear(action, cols[a], tcols[u])


# the counts the module search reaches on the adjoint modules of the dense
# forms after sparse_basis: those of the canonical bases
@pytest.mark.parametrize("name, rep_count, lie_count", [
    ("bench-heis3", 4, 2), ("bench-a2k", 2, 0), ("bench-fil4", 6, 0), ("bench-hemi2", 2, 0),
    ("sl2", 12, 6)])
def test_dense_adjoint_modules_reach_the_canonical_count(name, rep_count, lie_count):
    g = CASES[f"{name} dense"]
    _, s, moved, _ = sparse_basis(g, adjoint_representation(g))
    # the adjoint module carried along S, before the module's search
    eye = Matrix.identity(g.dim)
    carried = (g.structure @ _kron(s, eye), g.structure @ _kron(eye, s))
    assert nonzeros(moved.left_action, moved.right_action) == rep_count < nonzeros(*carried)
    moved = sparse_basis(g, adjoint_lie_module(g.quotient_data.quotient))[2]
    assert nonzeros(moved.action) == lie_count


# a 1-dim module over an abelian Lie quotient whose lift moves along S
# through pi_g: the algebras with a nonzero square span, and their dense forms
CHARACTER_CASES = {name: g for base in ("A2", "hemi2", "A2+k")
                   for name, g in ((base, CORPUS[base]),
                                   (f"{base} dense", in_dense_basis(CORPUS[base])))}


@pytest.mark.parametrize("name", list(CHARACTER_CASES))
def test_character_modules_are_read_through_their_lift(name):
    g = CHARACTER_CASES[name]
    m = character_module(g.quotient_data)
    assert g.quotient_data.ann.dim > 0 and nonzeros(m.action) == 1
    h, s, moved, t = sparse_basis(g, m)
    assert (h is g) == (not name.endswith(" dense"))
    assert is_isomorphism(s, h, g, t, moved, m)
    assert not check_lie_module(h.quotient_data.quotient, moved)
    assert nonzeros(moved.action) == 1
    pair = cli._in_sparse_basis(g, m)
    for builder in (loday_complex, loday_cochain_complex, ce_chain, ce_cochain):
        off, on = builder(g, m, 4), builder(*pair, 4)
        assert (off.dims, off.betti()) == (on.dims, on.betti()), builder.__name__
    assert _fields(ce_projection(g, m, 3)[2]) == _fields(ce_projection(*pair, 3)[2])


def test_the_gate_refuses_a_wrong_module():
    g = CASES["bench-hemi2 dense"]
    m = character_module(g.quotient_data)
    h, s, moved, t = sparse_basis(g, m)
    assert is_isomorphism(s, h, g, t, moved, m)
    # a doubled character, the zero one, a singular T, and S that does not
    # carry the bracket
    doubled = LieModule(1, leibcore._lincomb((2, moved.action)))
    zero = LieModule(1, Matrix.zeros(1, moved.action.cols))
    assert not is_isomorphism(s, h, g, t, doubled, m)
    assert not is_isomorphism(s, h, g, t, zero, m)
    assert not is_isomorphism(s, h, g, Matrix.zeros(1, 1), moved, m)
    assert not is_isomorphism(leibcore._lincomb((2, s)), h, g, t, moved, m)


def dense_heis3_modules() -> dict:
    """heis3's adjoint modules, as a rep: and a lie: module, written in the
    module basis P = dense_basis(3)."""
    g = CANONICAL["heis3"]
    p, eye = Matrix.from_rows(GEN.dense_basis(3)), Matrix.identity(3)
    pinv = Matrix.from_rows(GEN._inverse(GEN.dense_basis(3)))
    rep, mod = adjoint_representation(g), adjoint_lie_module(g.quotient_data.quotient)
    return {"rep": Representation(3, rep.basis_names, pinv @ rep.left_action @ _kron(eye, p),
                                  pinv @ rep.right_action @ _kron(p, eye)),
            "lie": LieModule(3, pinv @ mod.action @ _kron(eye, p))}


def test_a_dense_module_over_a_canonical_basis_moves_alone():
    # S is the identity and T is not: the dense modules are carried back to
    # the canonical counts
    g, dense_mods = CANONICAL["heis3"], dense_heis3_modules()
    for m, tables, reached in ((dense_mods["rep"], lambda m: (m.left_action, m.right_action), 4),
                               (dense_mods["lie"], lambda m: (m.action,), 2)):
        h, moved = cli._in_sparse_basis(g, m)
        assert h is g and moved is not m
        assert nonzeros(*tables(moved)) == reached < nonzeros(*tables(m))
        for builder in (loday_complex, loday_cochain_complex):
            off, on = builder(g, m, 3), builder(h, moved, 3)
            assert (off.dims, off.betti()) == (on.dims, on.betti()), builder.__name__


@pytest.mark.parametrize("kind", ["rep", "lie"])
def test_the_gate_refuses_a_wrong_s_or_t_alone(kind):
    # heis3 = span(p, q, z), [p, q] = z: S is the identity and T is not
    g, m = CANONICAL["heis3"], dense_heis3_modules()[kind]
    h, s, moved, t = sparse_basis(g, m)
    assert h is g and t != Matrix.identity(3)
    assert is_isomorphism(s, h, g, t, moved, m)
    # only S wrong: 2S does not carry the bracket; diag(2, 1, 2) does, as
    # an automorphism of heis3, but not the module along T
    auto = Matrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert not is_isomorphism(leibcore._lincomb((2, s)), h, g, t, moved, m)
    assert is_isomorphism(auto, h, g) and not is_isomorphism(auto, h, g, t, moved, m)
    # only T wrong: invertible but no module map, zero, and of rank 2
    rescaled = t @ Matrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    rank2 = t @ Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    for wrong in (rescaled, Matrix.zeros(3, 3), rank2):
        assert not is_isomorphism(s, h, g, wrong, moved, m)



def test_a_lie_module_over_a_lie_algebra_enters_by_its_own_action():
    # heis3 is its own Lie quotient: over q the dense module is compared by
    # its table, T A' = A (S (x) T), and over g through the projection
    g, dense_mod = CANONICAL["heis3"], dense_heis3_modules()["lie"]
    q, eye = g.quotient_data.quotient, Matrix.identity(3)
    mod, p = adjoint_lie_module(q), Matrix.from_rows(GEN.dense_basis(3))
    assert check_lie_module(q, dense_mod) == ()
    for algebra in (q, g):
        assert is_isomorphism(eye, algebra, algebra, p, dense_mod, mod)
        assert not is_isomorphism(eye, algebra, algebra, eye, dense_mod, mod)

# --- on/off: the input basis and the sparse basis give one set of numbers

def _fields(report):
    return [getattr(report, f) for f in report.__match_args__]


def test_the_on_off_cases_include_changed_bases():
    assert sum(sparse_basis(g)[0] is not g for g in CASES.values()) >= 15


@pytest.mark.parametrize("name", list(CASES))
def test_tensor_complexes_agree_on_and_off(name):
    g = CASES[name]
    modules = dict(representations_for(g), trivial=trivial_coefficients(),
                   **{f"lie-{k}": m for k, m in lie_modules_for(g).items()})
    for mname, m in modules.items():
        n_max = 4 if m.dim == 1 else 3
        for builder in (loday_complex, loday_cochain_complex):
            off, on = builder(g, m, n_max), builder(*cli._in_sparse_basis(g, m), n_max)
            assert (off.dims, off.betti()) == (on.dims, on.betti()), (mname, builder.__name__)


@pytest.mark.parametrize("name", list(CASES))
def test_envelope_complexes_comparison_and_fg_agree_on_and_off(name):
    g, triv = CASES[name], trivial_coefficients()
    h, _ = cli._in_sparse_basis(g, triv)
    off, on = fg_subcomplex(g, 4), fg_subcomplex(h, 4)
    assert (off.dims, off.betti()) == (on.dims, on.betti())
    for mname, m in dict(lie_modules_for(g), trivial=triv).items():
        pair, n_max = cli._in_sparse_basis(g, m), 4 if m.dim == 1 else 3
        for builder in (ce_chain, ce_cochain):
            off, on = builder(g, m, n_max), builder(*pair, n_max)
            assert (off.dims, off.betti()) == (on.dims, on.betti()), (mname, builder.__name__)
        assert _fields(ce_projection(g, m, 3)[2]) == _fields(ce_projection(*pair, 3)[2]), mname
