"""The sparse basis: the greedy search itself, and the basis-invariant
numbers of every builder the CLI runs on it, with the search on and off."""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from leibhom import leibcore
from leibhom.exactla import Matrix
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
    Representation,
    _descent,
    check_leibniz,
    check_representation,
    is_isomorphism,
    sparse_basis,
    transport_representation,
)

from conftest import (
    CORPUS,
    bilinear,
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

# [e,f] = h, [h,e] = 2e, [h,f] = -2f
SL2 = LeibnizAlgebra.from_brackets(["e", "f", "h"], {
    (0, 1): {2: 1}, (1, 0): {2: -1}, (2, 0): {0: 2}, (0, 2): {0: -2}, (2, 1): {1: -2},
    (1, 2): {1: 2}})

CANONICAL = dict(CORPUS, sl2=SL2, **{
    f"bench-{name}": LeibnizAlgebra.from_brackets(spec["basis"], spec["brackets"])
    for name, spec in GEN.ALGEBRAS.items()})


def nnz(g: LeibnizAlgebra) -> int:
    return sum(len(row) for _, row in g.structure.int_rows)


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


@pytest.mark.parametrize("name", list(CASES))
def test_sparse_basis_is_an_isomorphism(name):
    g = CASES[name]
    h, s = sparse_basis(g)
    assert is_isomorphism(s, h, g)
    assert not check_leibniz(h)
    # S [e_i, e_j]_h = [S e_i, S e_j]_g entry by entry, on dense tensors
    cols = s.transpose().entries
    th, tg = dense(h.structure, g.dim, g.dim), dense(g.structure, g.dim, g.dim)
    for i in range(g.dim):
        for j in range(g.dim):
            assert s.apply(th[i][j]) == bilinear(tg, cols[i], cols[j])
    for mname, m in representations_for(g).items():
        assert not check_representation(h, transport_representation(m, s)), mname


@pytest.mark.parametrize("name", list(CASES))
def test_descent_lowers_the_count_at_every_move_within_the_budget(name):
    g = CASES[name]
    counts = [nnz(g)] + [len(cells) for *_, cells, _ in _descent(g)]
    assert len(counts) - 1 <= leibcore.SPARSE_STEPS
    assert all(a > b for a, b in zip(counts, counts[1:]))
    assert nnz(sparse_basis(g)[0]) == counts[-1]


def test_descent_stops_at_the_step_budget(monkeypatch):
    g = CASES["bench-a2k dense"]
    assert len(list(_descent(g))) == 2
    monkeypatch.setattr(leibcore, "SPARSE_STEPS", 1)
    [(_, _, _, cells, _)] = _descent(g)
    h, s = sparse_basis(g)
    assert nnz(h) == len(cells) < nnz(g)
    assert is_isomorphism(s, h, g)


@pytest.mark.parametrize("name", list(CANONICAL))
def test_a_canonical_basis_comes_back_unchanged(name):
    g = CANONICAL[name]
    assert list(_descent(g)) == []
    h, s = sparse_basis(g)
    assert h is g
    assert s == Matrix.identity(g.dim)


# the counts of the canonical bases; hemi2 reaches its count of 1 too
@pytest.mark.parametrize("name, count", [
    ("bench-heis3", 2), ("bench-a2k", 1), ("bench-fil4", 3), ("bench-hemi2", 1), ("sl2", 6)])
def test_dense_forms_reach_the_canonical_count(name, count):
    g = CASES[f"{name} dense"]
    assert nnz(CANONICAL[name]) == count < nnz(g)
    assert nnz(sparse_basis(g)[0]) == count


def test_transport_reads_the_actions_on_the_new_basis():
    g = CASES["heis3 conjugate1"]
    h, s = sparse_basis(g)
    m = representations_for(g)["adjoint"]
    moved = transport_representation(m, s)
    cols = s.transpose().entries
    left, right = dense(m.left_action, g.dim, m.dim), dense(m.right_action, m.dim, g.dim)
    new_left = dense(moved.left_action, g.dim, m.dim)
    new_right = dense(moved.right_action, m.dim, g.dim)
    for i in range(g.dim):
        for u in range(m.dim):
            f_u = tuple(Fraction(int(v == u)) for v in range(m.dim))
            assert new_left[i][u] == bilinear(left, cols[i], f_u)
            assert new_right[u][i] == bilinear(right, f_u, cols[i])


# --- on/off: the input basis and the sparse basis give one set of numbers

def test_the_on_off_cases_include_changed_bases():
    assert sum(sparse_basis(g)[0] is not g for g in CASES.values()) >= 15


def _sparse_pair(g, m):
    """g and its coefficients m carried to the sparse basis of g."""
    h, s = sparse_basis(g)
    return h, transport_representation(m, s) if isinstance(m, Representation) else m


@pytest.mark.parametrize("name", list(CASES))
def test_tensor_complexes_agree_on_and_off(name):
    g = CASES[name]
    modules = dict(representations_for(g), trivial=trivial_coefficients())
    for mname, m in modules.items():
        n_max = 4 if m.dim == 1 else 3
        for builder in (loday_complex, loday_cochain_complex):
            off, on = builder(g, m, n_max), builder(*_sparse_pair(g, m), n_max)
            assert (off.dims, off.betti()) == (on.dims, on.betti()), (mname, builder.__name__)


@pytest.mark.parametrize("name", list(CASES))
def test_envelope_complexes_comparison_and_fg_agree_on_and_off(name):
    g, triv = CASES[name], trivial_coefficients()
    h, _ = _sparse_pair(g, triv)
    for builder in (ce_chain, ce_cochain):
        off, on = builder(g, triv, 4), builder(h, triv, 4)
        assert (off.dims, off.betti()) == (on.dims, on.betti()), builder.__name__
    off, on = fg_subcomplex(g, 4), fg_subcomplex(h, 4)
    assert (off.dims, off.betti()) == (on.dims, on.betti())
    off, on = ce_projection(g, triv, 3)[2], ce_projection(h, triv, 3)[2]
    assert [getattr(off, f) for f in off.__match_args__] == [getattr(on, f)
                                                             for f in on.__match_args__]
